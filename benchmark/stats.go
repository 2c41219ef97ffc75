package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0–100) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// typicalTail is the tail latency of the window's quieter seconds: the p-th
// percentile within each stretch of per frames (one second), and of those
// the lower quartile. lat[i] holds the samples of frame i (one per receiver
// that displayed it). A host stall of a few hundred milliseconds puts every
// frame due in it beyond the whole window's p95 and moved that figure by 50%
// and more in three runs of ten, and a slow stretch of the host lasting
// seconds did the same in three of another ten; either spoils the seconds it
// covers and no others. A tail the program grows for every frame shows in
// every second. The frames a stall made late still count against
// ontime_frame_ratio, and the whole window's percentile is a per-layer metric.
func typicalTail(lat [][]float64, per int, p float64) float64 {
	var tails []float64
	for from := 0; from < len(lat); from += per {
		var second []float64
		for i := from; i < from+per && i < len(lat); i++ {
			second = append(second, lat[i]...)
		}
		if len(second) > 0 {
			tails = append(tails, percentile(second, p))
		}
	}
	return percentile(tails, 25)
}

// quartileSpread is the distance between the first and third quartile of xs
// as a share of the median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (exclusive method) — the figure the
// pipeline's acceptance test computes over ten seeds. Below four values it
// falls back to the full range.
func quartileSpread(xs []float64) float64 {
	med := median(xs)
	if med == 0 || len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / math.Abs(med)
	}
	q := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// pingPong maps an unbounded frame counter onto a clip of n frames played
// forward then backward (0,1,…,n-1,n-2,…,1,0,1,…) so looping never cuts the
// scene and no frame is shown twice at a turn.
func pingPong(i, n int) int {
	if n <= 1 {
		return 0
	}
	i %= 2*n - 2
	if i >= n {
		i = 2*n - 2 - i
	}
	return i
}

// procUsage is a process resource snapshot; deltas of two bracket a window.
type procUsage struct {
	user, sys  time.Duration
	mallocs    uint64
	allocBytes uint64
	gcPause    time.Duration
	maxRSSKB   int64
}

// readProcUsage snapshots CPU time (getrusage) and, when mem is set, the
// allocator counters (ReadMemStats stops the world, so untraced runs skip it).
func readProcUsage(mem bool) procUsage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF cannot fail
	u := procUsage{
		user:     time.Duration(ru.Utime.Nano()),
		sys:      time.Duration(ru.Stime.Nano()),
		maxRSSKB: int64(ru.Maxrss),
	}
	if mem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		u.mallocs, u.allocBytes, u.gcPause = ms.Mallocs, ms.TotalAlloc, time.Duration(ms.PauseTotalNs)
	}
	return u
}

// since returns the usage accumulated between u0 and u; the RSS peak is u's.
func (u procUsage) since(u0 procUsage) procUsage {
	return procUsage{
		user: u.user - u0.user, sys: u.sys - u0.sys,
		mallocs: u.mallocs - u0.mallocs, allocBytes: u.allocBytes - u0.allocBytes,
		gcPause: u.gcPause - u0.gcPause, maxRSSKB: u.maxRSSKB,
	}
}

// stolen reads how long the hypervisor has kept this guest's runnable CPUs
// waiting since boot, averaged over the CPUs (the steal column of /proc/stat,
// in 10 ms ticks); 0 where the kernel does not report it. A thread that
// computes throughout loses about that much wall time: when the host gave
// this guest half a CPU less for a minute, the closed loop's wall time grew
// by 0.52 to 0.58 of the summed steal of its two CPUs, and its CPU time not
// at all.
func stolen() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(ticks) * 10 * time.Millisecond / time.Duration(runtime.NumCPU())
}

// stretch times a stretch of computing: wall time less what the hypervisor
// stole of it.
type stretch struct {
	start  time.Time
	stolen time.Duration
}

func startStretch() stretch { return stretch{time.Now(), stolen()} }

func (s stretch) took() time.Duration { return time.Since(s.start) - (stolen() - s.stolen) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
