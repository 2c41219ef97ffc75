package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on a few cores of a shared host whose speed drifts by a
// third over minutes (same binary, same seed: 18 to 25 frames/s on
// replay_trace), which is wider than any bound a CPU-time metric could be
// held to. The speed probe is a fixed piece of work of the benchmark's own —
// none of the program's code, so no change to the program can move it —
// timed on its thread's CPU clock many times during the timed window.
// CPU-time metrics are scaled by probeRefMs over the window's median probe
// time: they read "milliseconds on a host that runs the probe in probeRefMs".
// The unscaled figures stay in the per-layer table (proc.cpu_*_ms_per_frame)
// next to bench.host_speed.

// probeRefMs is the probe's CPU time on the reference host: the 2-core
// 2.1 GHz guest the baseline was recorded on, in a quiet hour (0.9 to 1.1 ms;
// up to 1.4 in a slow one).
const probeRefMs = 1.0

// The probe's buffers fit the second-level cache and are touched before the
// clock starts, so it times its own work, not the misses a frame's megabytes
// leave behind.
var (
	probeBytes [2][1 << 15]byte
	probeReals [1 << 13]float32
	probeDepth [1 << 16]int32
	probeSink  uint32
)

func init() {
	x := uint32(1)
	for i := range probeBytes[0] {
		x = x*1664525 + 1013904223
		probeBytes[0][i], probeBytes[1][i] = byte(x>>24), byte(x>>16)
	}
	for i := range probeReals {
		x = x*1664525 + 1013904223
		probeReals[i] = float32(x>>8) / (1 << 24)
	}
}

// probeTouch loads every cache line the probe works on.
func probeTouch() {
	var s uint32
	for i := 0; i < len(probeBytes[0]); i += 64 {
		s += uint32(probeBytes[0][i]) + uint32(probeBytes[1][i])
	}
	for i := 0; i < len(probeReals); i += 16 {
		s += uint32(probeReals[i])
	}
	for i := 0; i < len(probeDepth); i += 16 {
		s += uint32(probeDepth[i])
	}
	probeSink += s
}

// probeWork does three kinds of work the pipeline's hot loops do: byte
// differences (motion search), float butterflies (transform) and scattered
// updates behind branches that cannot be predicted (entropy coding,
// splatting), three, three and two eighths of its time. When this host slows
// down it is arithmetic that slows most (a neighbour on the sibling
// hyperthread) and code that waits on latency least; over three quarter-hours
// of drift the first two kinds alone moved up to twice as much as the
// pipeline, the third half as much, and in these shares the probe moved as
// the pipeline did (log-log slope 0.93 to 1.08, correlation 0.93 to 0.98).
// The parts are kept out of line: inlined into one body the compiler's code
// for the third ran ten times slower and no longer tracked anything.
func probeWork() {
	sad := probeSAD(8)
	acc := probeFloat(80)
	probeSink += sad + uint32(acc) + probeBranchy(32<<10)
}

//go:noinline
func probeSAD(offsets int) (sad uint32) {
	a, b := &probeBytes[0], &probeBytes[1]
	for off := 0; off < offsets; off++ {
		for i := 0; i < len(a)-offsets; i++ {
			d := int32(a[i]) - int32(b[i+off])
			if d < 0 {
				d = -d
			}
			sad += uint32(d)
		}
	}
	return sad
}

//go:noinline
func probeFloat(passes int) (acc float32) {
	for pass := 0; pass < passes; pass++ {
		for i := 0; i+8 <= len(probeReals); i += 8 {
			v := probeReals[i : i+8 : i+8]
			s0, s1, s2, s3 := v[0]+v[7], v[1]+v[6], v[2]+v[5], v[3]+v[4]
			d0, d1, d2, d3 := v[0]-v[7], v[1]-v[6], v[2]-v[5], v[3]-v[4]
			acc += (s0+s3)*0.3536 + (s1+s2)*0.3536 + d0*0.4904 + d1*0.4157 + d2*0.2778 + d3*0.0975
		}
	}
	return acc
}

//go:noinline
func probeBranchy(n int) uint32 {
	x := uint32(99991)
	for i := 0; i < n; i++ {
		x = x*1664525 + 1013904223
		j, z := x>>16, int32(x&0xffff)
		if x&0x8000 != 0 {
			probeDepth[j] += z
		} else {
			probeDepth[j] ^= z
		}
	}
	return x
}

// threadCPU reads the calling thread's CPU clock.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// speedProbe collects probe timings over a window.
type speedProbe struct {
	mu   sync.Mutex
	ms   []float64     // CPU time of each probe
	cpu  time.Duration // CPU time the probes took in all, to take off the window's
	stop chan struct{}
	wg   sync.WaitGroup
}

// once runs the probe on the calling goroutine.
func (s *speedProbe) once() {
	runtime.LockOSThread()
	probeTouch()
	t := threadCPU()
	probeWork()
	d := threadCPU() - t
	runtime.UnlockOSThread()
	s.mu.Lock()
	s.ms = append(s.ms, ms(d))
	s.cpu += d
	s.mu.Unlock()
}

// every probes on a ticker until halt; the open-loop workloads use it.
func (s *speedProbe) every(d time.Duration) {
	s.stop = make(chan struct{})
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(d)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.once()
			}
		}
	}()
}

func (s *speedProbe) halt() {
	close(s.stop)
	s.wg.Wait()
}

// speed is how fast the host ran during the window relative to the reference
// host: above 1 is faster.
func (s *speedProbe) speed() float64 {
	if m := mean(s.ms); m > 0 {
		return probeRefMs / m
	}
	return 1
}
