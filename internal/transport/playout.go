package transport

import "sort"

const (
	// MaxPlayoutDelay caps the playout target at the paper's fixed WebRTC
	// jitter-buffer delay (§A.1, Table 6): the estimator may ask for less,
	// never for more, so no frame waits longer than it did when the delay was
	// a constant.
	MaxPlayoutDelay = 0.100

	// playoutWindow is how far back the estimator looks. It has to be long
	// enough for the 95th percentile to be a measurement (30 fps × 2 streams
	// × 3 s = 180 samples, nine beyond the quantile) and short enough that a
	// route change stops costing latency a few seconds after it settles.
	playoutWindow = 3.0
	// playoutQuantilePct is the share of frames (percent) the target is sized
	// to play on schedule. The rest are played late, on completion, not
	// dropped — so covering the tail buys nothing but delay for every other
	// frame, and the 95th is the highest percentile the window still resolves.
	playoutQuantilePct = 95
	// playoutSamples bounds the window in samples (≈ 4 s of two 30 fps streams).
	playoutSamples = 256

	// repairMargin is the least slack added to the smoothed round trip before
	// a NACK is considered unanswered: timer granularity plus the far end's
	// turnaround, which a steady path's near-zero variance would not cover.
	repairMargin = 0.010
)

// PlayoutEstimator sizes a receiving session's playout delay from what its
// jitter buffers measure, in place of a constant. It is fed every frame's
// completion delay — last fragment's arrival minus the sender's timestamp, an
// arbitrary clock offset included — and tracks the smallest delay in the
// window (the path's floor, which absorbs the offset) and the 95th percentile
// of the delays above that floor (the jitter to cover). A frame stamped ts is
// then due at ts + floor + target: on a quiet path that is the moment it
// completes; on a jittery one, late enough that 95% of frames make it.
//
// The same value also carries the session's repair round-trip estimate
// (RTT probes and NACK→fragment arrivals, smoothed like TCP's RTO), which the
// buffers use to pace re-requests and to stop waiting for a repair that is
// not coming.
//
// One estimator is shared by all of a session's (stream, rung) buffers; the
// zero value is ready to use. It is pure bookkeeping — no clock, no goroutine,
// no locking; callers serialise.
type PlayoutEstimator struct {
	// Floor is the least target ever reported. Zero in every session; the
	// paper's figures (internal/experiments) and a test pin it to
	// MaxPlayoutDelay, the fixed delay the adaptive target replaced.
	Floor float64

	ring    [playoutSamples]playoutSample // completion delays, oldest at head
	head, n int
	scratch []float64 // the window's delays, sorted

	base, target float64 // over the current window; valid when n > 0

	srtt, rttvar float64
	hasRTT       bool
}

type playoutSample struct{ at, delay float64 }

// Observe records one frame that completed at time completion (receiver
// clock, seconds) having been stamped sendTime (sender clock, seconds) — only
// frames that completed without a retransmission: a repaired frame's delay is
// the repair's round trip, not the path's jitter.
func (e *PlayoutEstimator) Observe(sendTime, completion float64) {
	for e.n > 0 && (e.n == playoutSamples || e.ring[e.head].at < completion-playoutWindow) {
		e.head = (e.head + 1) % playoutSamples
		e.n--
	}
	e.ring[(e.head+e.n)%playoutSamples] = playoutSample{completion, completion - sendTime}
	e.n++

	e.scratch = e.scratch[:0]
	for i := 0; i < e.n; i++ {
		e.scratch = append(e.scratch, e.ring[(e.head+i)%playoutSamples].delay)
	}
	sort.Float64s(e.scratch)
	e.base = e.scratch[0]
	// The smallest delay with at least the quantile's share of the window at
	// or below it.
	q := (playoutQuantilePct*e.n+99)/100 - 1
	e.target = e.scratch[q] - e.base
}

// Target returns the current playout target in seconds, within
// [Floor, MaxPlayoutDelay].
func (e *PlayoutEstimator) Target() float64 {
	t := e.target
	if t < e.Floor {
		t = e.Floor
	}
	if t > MaxPlayoutDelay {
		t = MaxPlayoutDelay
	}
	return t
}

// Due returns when a frame stamped sendTime by the sender should be played
// (receiver clock). Before the first observation there is no floor to place
// it against and ok is false.
func (e *PlayoutEstimator) Due(sendTime float64) (due float64, ok bool) {
	if e.n == 0 {
		return 0, false
	}
	return sendTime + e.base + e.Target(), true
}

// ObserveRTT folds one repair round-trip sample (seconds) into the smoothed
// estimate: an RTT probe's echo, or a NACK-ed fragment's arrival measured
// from its request.
func (e *PlayoutEstimator) ObserveRTT(rtt float64) {
	if rtt < 0 {
		return
	}
	if !e.hasRTT {
		e.srtt, e.rttvar, e.hasRTT = rtt, rtt/2, true
		return
	}
	dev := e.srtt - rtt
	if dev < 0 {
		dev = -dev
	}
	e.rttvar = 0.75*e.rttvar + 0.25*dev
	e.srtt = 0.875*e.srtt + 0.125*rtt
}

// RTT returns the smoothed round trip; ok is false before the first sample.
func (e *PlayoutEstimator) RTT() (rtt float64, ok bool) { return e.srtt, e.hasRTT }

// RepairTimeout returns how long after a NACK its answer should have arrived
// (smoothed round trip plus four deviations, at least repairMargin of slack);
// ok is false before the first round-trip sample.
func (e *PlayoutEstimator) RepairTimeout() (d float64, ok bool) {
	if !e.hasRTT {
		return 0, false
	}
	slack := 4 * e.rttvar
	if slack < repairMargin {
		slack = repairMargin
	}
	return e.srtt + slack, true
}
