package transport

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

const (
	testFPS    = 30
	clockSkew  = 1234.5 // receiver clock minus sender clock: the estimator must not care
	pathDelay  = 0.020
	frameBytes = 3 * MTU
)

// arrival is one packet reaching a buffer.
type arrival struct {
	at  float64
	pkt Packet
}

// played is one frame leaving a buffer, with the schedule it left against.
type played struct {
	seq       uint32
	at        float64
	due       float64 // the estimator's playout time for it, as of its release
	completed float64
}

// playThrough delivers arrivals to jb and drains it the way a session does:
// on every arrival, and otherwise only when NextDeadline says so. It returns
// the frames in release order and every NACK round (time, requests).
func playThrough(t *testing.T, jb *JitterBuffer, arrivals []arrival, until float64) (out []played, nacks map[float64][]NackRequest) {
	t.Helper()
	sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].at < arrivals[j].at })
	nacks = map[float64][]NackRequest{}
	sent := map[uint32]float64{}
	for _, a := range arrivals {
		sent[a.pkt.FrameSeq] = float64(a.pkt.SendTimeUs) / 1e6
	}
	drain := func(now float64) {
		for _, af := range jb.Pop(now) {
			due, _ := jb.Playout.Due(sent[af.FrameSeq])
			out = append(out, played{af.FrameSeq, now, due, af.LastArrival})
		}
		if n := jb.Nacks(now); len(n) > 0 {
			nacks[now] = n
		}
	}
	now := 0.0
	for i := 0; ; {
		next, timed := NextDeadline(now, jb)
		if timed && next < now {
			t.Fatalf("NextDeadline(%v) = %v, in the past", now, next)
		}
		if i < len(arrivals) && (!timed || arrivals[i].at <= next) {
			now = arrivals[i].at
			jb.Push(arrivals[i].pkt, now)
			i++
		} else if timed && next <= until {
			if next == now {
				t.Fatalf("NextDeadline(%v) did not move after a drain", now)
			}
			now = next
		} else {
			return out, nacks
		}
		drain(now)
	}
}

// sentAt is frame i's sender timestamp at 30 fps, exact in microseconds.
func sentAt(i int) float64 { return float64(sentAtUs(i)) / 1e6 }

func sentAtUs(i int) uint64 { return uint64(i) * 1e6 / testFPS }

// stream builds n frames sent at 30 fps, frame i's fragments all arriving
// pathDelay + extra(i) after it was stamped.
func stream(n int, extra func(i int) float64) []arrival {
	var out []arrival
	for i := 0; i < n; i++ {
		at := sentAt(i) + clockSkew + pathDelay + extra(i)
		for _, p := range Packetize(StreamColor, uint32(i), i == 0, sentAtUs(i), make([]byte, frameBytes)) {
			out = append(out, arrival{at, p})
		}
	}
	return out
}

// TestPlayoutEstimatorTargets drives the estimator with synthetic arrival
// patterns and checks where the target settles.
func TestPlayoutEstimatorTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	uniform15 := make([]float64, 300)
	for i := range uniform15 {
		uniform15[i] = 0.015 + (rng.Float64()*2-1)*0.015
	}
	for _, tc := range []struct {
		name     string
		frames   int
		extra    func(i int) float64
		min, max float64 // bounds on the final target
	}{
		{"zero jitter", 200, func(int) float64 { return 0 }, 0, 1e-9},
		{"uniform ±15 ms", 300, func(i int) float64 { return uniform15[i] }, 0.026, 0.030},
		{"alternating 0/250 ms is capped", 200, func(i int) float64 { return float64(i%2) * 0.250 }, MaxPlayoutDelay, MaxPlayoutDelay},
		{"one outlier in a window is ignored", 200, func(i int) float64 {
			if i == 150 {
				return 0.080
			}
			return 0
		}, 0, 1e-9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var e PlayoutEstimator
			for i := 0; i < tc.frames; i++ {
				e.Observe(sentAt(i), sentAt(i)+clockSkew+pathDelay+tc.extra(i))
			}
			if got := e.Target(); got < tc.min || got > tc.max {
				t.Fatalf("target = %.4f s, want within [%.4f, %.4f]", got, tc.min, tc.max)
			}
		})
	}

	t.Run("floor pins a fixed delay", func(t *testing.T) {
		e := PlayoutEstimator{Floor: MaxPlayoutDelay}
		e.Observe(1, 1+clockSkew)
		if due, ok := e.Due(2); !ok || math.Abs(due-(2+clockSkew+MaxPlayoutDelay)) > 1e-9 {
			t.Fatalf("Due(2) = %v, %v with the floor at the cap", due, ok)
		}
	})
}

// TestPlayoutEstimatorSpike: a burst of frames 60 ms late raises the target
// while the burst is inside the window and no longer; afterwards the target
// decays back to the quiet path's.
func TestPlayoutEstimatorSpike(t *testing.T) {
	var e PlayoutEstimator
	const spikeAt, spikeLen = 150, 12
	targetAt := map[int]float64{}
	for i := 0; i < 400; i++ {
		extra := 0.0
		if i >= spikeAt && i < spikeAt+spikeLen {
			extra = 0.060
		}
		e.Observe(sentAt(i), sentAt(i)+clockSkew+pathDelay+extra)
		targetAt[i] = e.Target()
	}
	if got := targetAt[spikeAt-1]; got > 1e-9 {
		t.Fatalf("target before the spike = %v, want 0", got)
	}
	if got := targetAt[spikeAt+spikeLen]; math.Abs(got-0.060) > 1e-6 {
		t.Fatalf("target right after a %d-frame 60 ms spike = %.4f, want 0.060", spikeLen, got)
	}
	const window = playoutWindow * testFPS
	if got := targetAt[spikeAt+window/2]; math.Abs(got-0.060) > 1e-6 {
		t.Fatalf("target half a window after the spike = %.4f, want it held at 0.060", got)
	}
	if got := targetAt[spikeAt+spikeLen+window+1]; got > 1e-9 {
		t.Fatalf("target one window after the spike = %.4f, want it back at 0", got)
	}
}

// TestJitterBufferReleasesOnCompletionWithoutJitter: on a path with no
// jitter every frame is played at the instant its last fragment arrives.
func TestJitterBufferReleasesOnCompletionWithoutJitter(t *testing.T) {
	out, nacks := playThrough(t, NewJitterBuffer(), stream(120, func(int) float64 { return 0 }), 1e9)
	if len(out) != 120 {
		t.Fatalf("played %d of 120 frames", len(out))
	}
	for _, p := range out {
		if p.at-p.completed > 1e-9 {
			t.Fatalf("frame %d completed at %v, played at %v", p.seq, p.completed, p.at)
		}
	}
	if len(nacks) != 0 {
		t.Fatalf("NACKs on a lossless path: %v", nacks)
	}
}

// TestJitterBufferPlaysOnScheduleUnderJitter: with ±15 ms of uniform jitter
// the buffer converges to a schedule that the chosen quantile of frames make:
// they are played at their due time, not before, and the rest — the ones that
// completed after it — the moment they complete.
func TestJitterBufferPlaysOnScheduleUnderJitter(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const frames = 900
	const warm = playoutWindow * testFPS // the first window is still filling
	out, _ := playThrough(t, NewJitterBuffer(), stream(frames, func(int) float64 { return rng.Float64() * 0.030 }), 1e9)
	if len(out) != frames {
		t.Fatalf("played %d of %d frames", len(out), frames)
	}
	onSchedule := 0
	for i, p := range out {
		if p.seq != uint32(i) {
			t.Fatalf("release %d is frame %d", i, p.seq)
		}
		if p.at < p.completed {
			t.Fatalf("frame %d played at %v, before it completed at %v", p.seq, p.at, p.completed)
		}
		if p.at < p.due-1e-9 && p.at < p.completed+MaxPlayoutDelay {
			t.Fatalf("frame %d played at %v, ahead of its schedule %v", p.seq, p.at, p.due)
		}
		if p.at > p.due+1e-9 && p.at != p.completed {
			t.Fatalf("frame %d played at %v: neither on its schedule %v nor on completion %v", p.seq, p.at, p.due, p.completed)
		}
		if i >= warm && p.at <= p.due+1e-9 {
			onSchedule++
		}
	}
	// 95% in expectation; 810 frames put two standard deviations at 1.5%.
	if share := float64(onSchedule) / float64(frames-warm); share < 0.935 {
		t.Fatalf("%.1f%% of frames played on schedule, want the %d%% the target is sized for", 100*share, playoutQuantilePct)
	}
}

// holed is a two-frame pattern: frame 5 loses fragment 1 and frames 6 and 7
// arrive whole behind it.
func holed() (arrivals []arrival, missing Packet) {
	for seq := 5; seq <= 7; seq++ {
		for _, p := range Packetize(StreamDepth, uint32(seq), false, sentAtUs(seq), make([]byte, frameBytes)) {
			if seq == 5 && p.FragIndex == 1 {
				missing = p
				continue
			}
			arrivals = append(arrivals, arrival{sentAt(seq) + clockSkew + pathDelay, p})
		}
	}
	return arrivals, missing
}

// TestJitterBufferHoleBlocksUntilRepaired: a frame with a fragment
// outstanding holds back the complete frames behind it, is NACK-ed, and —
// when the retransmission lands — leaves first, the others right behind. The
// repaired frame's delay is the repair's, so it does not move the target.
func TestJitterBufferHoleBlocksUntilRepaired(t *testing.T) {
	jb := NewJitterBuffer()
	arrivals, missing := holed()
	t5 := sentAt(5) + clockSkew + pathDelay
	repairAt := t5 + 0.080
	out, nacks := playThrough(t, jb, append(arrivals, arrival{repairAt, missing}), 1e9)
	if len(out) != 3 {
		t.Fatalf("played %d frames, want 3", len(out))
	}
	for i, p := range out {
		if p.seq != uint32(5+i) || p.at != repairAt {
			t.Fatalf("release %d: frame %d at %v, want frame %d at the repair (%v)", i, p.seq, p.at, 5+i, repairAt)
		}
	}
	round, ok := nacks[t5+jb.nackAfter]
	if !ok || len(nacks) != 1 || len(round) != 1 || round[0] != (NackRequest{StreamDepth, 5, 1}) {
		t.Fatalf("NACK rounds = %v, want one for frame 5 fragment 1 at %v", nacks, t5+jb.nackAfter)
	}
	if got := jb.Playout.Target(); got > 1e-9 {
		t.Fatalf("target = %v after a repaired frame, want it unmoved", got)
	}
	// The repair took 65 ms from its request: the buffer's first round-trip sample.
	if rtt, ok := jb.Playout.RTT(); !ok || math.Abs(rtt-(0.080-jb.nackAfter)) > 1e-9 {
		t.Fatalf("RTT = %v, %v; want the NACK→fragment time", rtt, ok)
	}
}

// TestJitterBufferRepairDeadline: a fragment that never comes holds its
// frame, and the frames behind, to the repair deadline — 220 ms past the
// first fragment while the round trip is unknown, and three unanswered
// request rounds once it is known and says that is sooner.
func TestJitterBufferRepairDeadline(t *testing.T) {
	t5 := sentAt(5) + clockSkew + pathDelay

	t.Run("round trip unknown", func(t *testing.T) {
		jb := NewJitterBuffer()
		arrivals, _ := holed()
		out, nacks := playThrough(t, jb, arrivals, 1e9)
		want := t5 + MaxPlayoutDelay + jb.skipAfter
		if len(out) != 2 || out[0].seq != 6 || out[1].seq != 7 || out[0].at != want || out[1].at != want {
			t.Fatalf("releases %+v, want frames 6 and 7 at %v", out, want)
		}
		if jb.Stats().Skipped != 1 || len(nacks) != 1 {
			t.Fatalf("skipped %d, %d NACK rounds; want 1 and 1 (re-request is %v s away)", jb.Stats().Skipped, len(nacks), jb.renackAfter)
		}
	})

	t.Run("round trip measured", func(t *testing.T) {
		jb := NewJitterBuffer()
		for i := 0; i < 20; i++ {
			jb.Playout.ObserveRTT(0.020)
		}
		retry, _ := jb.Playout.RepairTimeout()
		if math.Abs(retry-(0.020+repairMargin)) > 1e-3 {
			t.Fatalf("repair timeout = %v on a steady 20 ms round trip", retry)
		}
		arrivals, _ := holed()
		out, nacks := playThrough(t, jb, arrivals, 1e9)
		first := t5 + jb.nackAfter
		want := first + repairRounds*retry
		if len(out) != 2 || math.Abs(out[0].at-want) > 1e-9 || out[1].at != out[0].at {
			t.Fatalf("releases %+v, want frames 6 and 7 at %v", out, want)
		}
		if want >= t5+MaxPlayoutDelay+jb.skipAfter {
			t.Fatal("test is vacuous: the measured deadline is not the earlier one")
		}
		var rounds []float64
		for at := range nacks {
			rounds = append(rounds, at)
		}
		sort.Float64s(rounds)
		if len(rounds) != repairRounds {
			t.Fatalf("NACK rounds at %v, want %d", rounds, repairRounds)
		}
		for i, at := range rounds {
			if math.Abs(at-(first+float64(i)*retry)) > 1e-9 {
				t.Fatalf("NACK round %d at %v, want %v", i, at, first+float64(i)*retry)
			}
		}
	})
}

// TestPopOrderedAcrossRungs: two rungs of one stream are drained as one
// sequence — the new rung's key frame waits for the old rung's last frames,
// hole included.
func TestPopOrderedAcrossRungs(t *testing.T) {
	est := &PlayoutEstimator{}
	rungs := []*JitterBuffer{NewJitterBuffer(), NewJitterBuffer()}
	for _, jb := range rungs {
		jb.Playout = est
	}
	push := func(seq int, rung uint8, drop int) (dropped Packet) {
		for _, p := range PacketizeRung(StreamColor, uint32(seq), rung == 1 && seq == 12, rung, sentAtUs(seq), make([]byte, frameBytes)) {
			if int(p.FragIndex) == drop {
				dropped = p
				continue
			}
			rungs[rung].Push(p, sentAt(seq)+clockSkew+pathDelay)
		}
		return dropped
	}
	push(10, 0, -1)
	missing := push(11, 0, 2)
	push(12, 1, -1) // the switch: rung 1 from its key frame on
	push(13, 1, -1)

	now := sentAt(13) + clockSkew + pathDelay
	if out := PopOrdered(now, rungs...); len(out) != 1 || out[0].FrameSeq != 10 {
		t.Fatalf("first drain released %+v, want frame 10 alone", out)
	}
	if n := rungs[0].Nacks(now); len(n) != 1 || n[0] != (NackRequest{StreamColor, 11, 2}) {
		t.Fatalf("NACKs %+v, want frame 11 fragment 2", n)
	}
	if at, ok := NextDeadline(now, rungs...); !ok || at <= now {
		t.Fatalf("NextDeadline = %v, %v with a hole outstanding", at, ok)
	}
	now += 0.030
	rungs[0].Push(missing, now)
	var seqs []uint32
	var from []uint8
	for _, af := range PopOrdered(now, rungs...) {
		seqs = append(seqs, af.FrameSeq)
		from = append(from, af.Rung)
	}
	if len(seqs) != 3 || seqs[0] != 11 || seqs[1] != 12 || seqs[2] != 13 || from[0] != 0 || from[1] != 1 || from[2] != 1 {
		t.Fatalf("after the repair: frames %v from rungs %v, want 11 12 13 from 0 1 1", seqs, from)
	}
	if _, ok := NextDeadline(now, rungs...); ok {
		t.Fatal("NextDeadline reports work on empty buffers")
	}
}

// TestNextDeadlineIsTheNextEvent scans a lossy, jittery stream in 1 ms steps
// and checks NextDeadline against what the buffer then does: it is never in
// the past, and whenever time alone makes Pop or Nacks do something, the
// deadline announced after the previous drain had been reached.
func TestNextDeadlineIsTheNextEvent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	jb := NewJitterBuffer()
	for i := 0; i < 10; i++ {
		jb.Playout.ObserveRTT(0.030)
	}
	var arrivals []arrival
	for _, a := range stream(300, func(int) float64 { return rng.Float64() * 0.020 }) {
		switch {
		case rng.Float64() < 0.03: // lost, never repaired
		case rng.Float64() < 0.03: // lost, repaired 50 ms later
			arrivals = append(arrivals, arrival{a.at + 0.050, a.pkt})
		default:
			arrivals = append(arrivals, a)
		}
	}
	sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].at < arrivals[j].at })

	const step = 0.001
	events := 0
	acts := func(now float64) bool {
		skipped := jb.Stats().Skipped
		n := len(jb.Pop(now)) + len(jb.Nacks(now))
		return n > 0 || jb.Stats().Skipped != skipped
	}
	now := arrivals[0].at
	deadline, timed := 0.0, false
	for i := 0; i < len(arrivals) || jb.Stats().Pending > 0; now += step {
		// Time first: what the clock alone brings about at this step.
		if acts(now) {
			events++
			if !timed || deadline > now {
				t.Fatalf("at %.4f the buffer acted, but the deadline announced was %v (%v)", now, deadline, timed)
			}
		}
		for ; i < len(arrivals) && arrivals[i].at <= now; i++ {
			jb.Push(arrivals[i].pkt, now)
		}
		acts(now)
		deadline, timed = NextDeadline(now, jb)
		if timed && deadline < now {
			t.Fatalf("NextDeadline(%v) = %v, in the past", now, deadline)
		}
		if !timed && jb.Stats().Pending > 0 {
			// Only a frame that has had its last NACK round and is not at
			// the head can be pending with nothing scheduled.
			if _, f, _ := jb.oldest(); !f.complete() {
				t.Fatalf("at %.4f an incomplete head frame is pending and no deadline is set", now)
			}
		}
	}
	if events < 20 || jb.Stats().Skipped == 0 {
		t.Fatalf("vacuous: %d timed events, %d skips", events, jb.Stats().Skipped)
	}
}
