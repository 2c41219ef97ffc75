// Package netem emulates the bottleneck link between the LiVo sender and
// receiver, replaying the bandwidth traces of §4.1 like Mahimahi [67]: a
// trace-driven serialization rate, a droptail queue, fixed propagation
// delay, and optional random loss. It runs in virtual time, so experiments
// replay faster than real time.
package netem

import (
	"math"
	"math/rand"

	"livo/internal/trace"
)

// Link is a one-way trace-driven bottleneck.
type Link struct {
	// Trace supplies capacity over time (Mbps). A nil trace means a fixed
	// capacity of FixedMbps.
	Trace     *trace.Bandwidth
	FixedMbps float64
	// PropDelay is the one-way propagation delay in seconds (default 0.02).
	PropDelay float64
	// QueueBytes is the droptail queue limit (default 2 MB ≈ a large
	// socket buffer, §A.1 notes LiVo enlarges the default UDP buffers).
	QueueBytes int
	// LossRate is an additional i.i.d. random loss probability.
	LossRate float64
	// Rng drives random loss (may be nil when LossRate is 0).
	Rng *rand.Rand

	// busyUntil is the virtual time at which the serializer drains.
	busyUntil float64
}

// NewLink builds a link over a bandwidth trace with defaults.
func NewLink(tr *trace.Bandwidth) *Link {
	return &Link{Trace: tr, PropDelay: 0.02, QueueBytes: 2 << 20}
}

// NewFixedLink builds a constant-capacity link (useful in tests).
func NewFixedLink(mbps float64) *Link {
	return &Link{FixedMbps: mbps, PropDelay: 0.02, QueueBytes: 2 << 20}
}

// capacityAt returns the capacity in bytes/second at virtual time t.
func (l *Link) capacityAt(t float64) float64 {
	mbps := l.FixedMbps
	if l.Trace != nil {
		mbps = l.Trace.At(t)
	}
	if mbps <= 0 {
		return 0
	}
	return mbps * 1e6 / 8
}

// QueueDelay returns the current serialization backlog in seconds at
// virtual time now.
func (l *Link) QueueDelay(now float64) float64 {
	if l.busyUntil <= now {
		return 0
	}
	return l.busyUntil - now
}

// Send enqueues a packet of the given size at virtual time now. It returns
// the arrival time at the far end and whether the packet was dropped
// (arrival is meaningless for drops). Calls must use non-decreasing now.
func (l *Link) Send(now float64, bytes int) (arrival float64, droppedPkt bool) {
	if bytes <= 0 {
		return now + l.PropDelay, false
	}
	// Droptail: queue occupancy approximated by backlog time x current
	// capacity.
	if l.QueueBytes > 0 {
		backlog := l.QueueDelay(now) * l.capacityAt(now)
		if int(backlog)+bytes > l.QueueBytes {
			return 0, true
		}
	}
	if l.Rng != nil && l.LossRate > 0 && l.Rng.Float64() < l.LossRate {
		return 0, true
	}
	start := math.Max(now, l.busyUntil)
	finish := l.serializeFinish(start, bytes)
	l.busyUntil = finish
	return finish + l.PropDelay, false
}

// serializeFinish integrates the (piecewise-constant) capacity from start
// until bytes have been transmitted.
func (l *Link) serializeFinish(start float64, bytes int) float64 {
	remaining := float64(bytes)
	t := start
	interval := 1.0
	if l.Trace != nil && l.Trace.Interval > 0 {
		interval = l.Trace.Interval
	}
	for iter := 0; iter < 1<<20; iter++ {
		cap := l.capacityAt(t)
		if cap <= 0 {
			// Outage: skip to the next trace interval.
			t = (math.Floor(t/interval) + 1) * interval
			continue
		}
		// Time left in this trace interval.
		intervalEnd := (math.Floor(t/interval) + 1) * interval
		dt := intervalEnd - t
		canSend := cap * dt
		if canSend >= remaining {
			return t + remaining/cap
		}
		remaining -= canSend
		t = intervalEnd
	}
	return t
}
