package relaycore

import (
	"testing"

	"livo/internal/transport"
)

// The rung policy is pure, so its tests are tables: no router, no
// goroutines, no clock.

const ms = int64(1e6)

// ladderTotals returns cumulative per-rung byte totals after n frames of a
// ladder costing 400/200/100 kb/s at one frame per 33 ms.
func ladderTotals(n int64) [transport.MaxRungs]int64 {
	perFrame := [3]int64{1650, 825, 412}
	var t [transport.MaxRungs]int64
	for i, b := range perFrame {
		t[i] = b * n
	}
	return t
}

// warmRates returns an estimator that has watched the 400/200/100 ladder
// for a second.
func warmRates() *rungRates {
	var r rungRates
	for f := int64(1); f <= 30; f++ {
		r.observe(ladderTotals(f), f*33*ms)
	}
	return &r
}

func TestRungRatesObserve(t *testing.T) {
	var r rungRates
	if n := r.rungs(); n != 0 {
		t.Fatalf("rungs() = %d before any traffic", n)
	}
	// The first observation only records baselines.
	r.observe(ladderTotals(1), 33*ms)
	if r.rate != [transport.MaxRungs]float64{} {
		t.Fatalf("rates after first observation = %v, want zeros", r.rate)
	}
	if n := r.rungs(); n != 3 {
		t.Fatalf("rungs() = %d, want 3", n)
	}
	// Closer than the minimum interval: skipped, but the totals are kept.
	r.observe(ladderTotals(2), 66*ms)
	if r.rate[0] != 0 || r.total != ladderTotals(2) || r.folded != ladderTotals(1) {
		t.Fatalf("short-interval observation folded: %+v", r)
	}
	// Past it: the first fold adopts the instantaneous rate outright.
	r.observe(ladderTotals(4), 132*ms)
	want0 := float64(ladderTotals(3)[0]) * 8 / 0.099
	if d := r.rate[0] - want0; d > 1 || d < -1 {
		t.Fatalf("rate[0] = %.0f, want %.0f", r.rate[0], want0)
	}
	// Later folds blend with alpha 0.5: a silent interval halves the rate.
	before := r.rate[0]
	r.observe(ladderTotals(4), 232*ms)
	if d := r.rate[0] - before/2; d > 1 || d < -1 {
		t.Fatalf("rate[0] after a silent interval = %.0f, want %.0f", r.rate[0], before/2)
	}
	if r.rate[3] != 0 {
		t.Fatalf("unused rung has rate %.0f", r.rate[3])
	}
}

func TestRungRatesPick(t *testing.T) {
	// A stream whose first frame has just arrived: every rung seen, no
	// rate measured yet.
	var fresh rungRates
	fresh.observe(ladderTotals(1), 33*ms)
	// A single-rung stream is a ladder of one.
	var single rungRates
	for f := int64(1); f <= 30; f++ {
		var tot [transport.MaxRungs]int64
		tot[0] = 1500 * f
		single.observe(tot, f*33*ms)
	}
	warm := warmRates()
	for i, want := range []float64{400e3, 200e3, 100e3} {
		if got := warm.rate[i]; got < want*0.97 || got > want*1.03 {
			t.Fatalf("warm rate[%d] = %.0f, want ≈ %.0f", i, got, want)
		}
	}

	cases := []struct {
		name     string
		r        *rungRates
		bps      float64
		target   uint8
		want     uint8
		wantDown bool
	}{
		{"first REMB with only frame 0 observed keeps rung 0", &fresh, 1e6, 0, 0, false},
		{"no traffic at all keeps the target", &rungRates{}, 1e6, 0, 0, false},
		{"ample bandwidth keeps rung 0", warm, 1e6, 0, 0, false},
		{"rung 0 must fit with 0.9 down-headroom", warm, 440e3, 0, 1, true},
		{"just inside the down-headroom holds", warm, 460e3, 0, 0, false},
		{"collapse selects the quarter rung and asks for a downswitch", warm, 120e3, 0, 2, true},
		{"nothing fits: cheapest rung seen", warm, 10e3, 0, 2, true},
		{"nothing fits and already on the cheapest: hold", warm, 10e3, 2, 2, false},
		{"recovery needs the 0.75 up-headroom: fitting the 0.9 alone holds", warm, 460e3, 2, 2, false},
		{"recovery past the up-headroom goes all the way up, without a PLI", warm, 600e3, 2, 0, false},
		{"one step up when only the middle rung clears the up-headroom", warm, 300e3, 2, 1, false},
		{"middle rung affordable but not comfortably: hold the cheaper rung", warm, 230e3, 2, 2, false},
		{"single-rung stream never leaves rung 0", &single, 1e3, 0, 0, false},
	}
	for _, c := range cases {
		got, down := c.r.pick(c.bps, c.target)
		if got != c.want || down != c.wantDown {
			t.Errorf("%s: pick(%.0f, %d) = (%d, %v), want (%d, %v)",
				c.name, c.bps, c.target, got, down, c.want, c.wantDown)
		}
	}
}

// rungStep is one event in a rungState script: a retarget (pkt false) or
// a media packet with the verdict admit must return.
type rungStep struct {
	pkt        bool
	target     uint8 // retarget
	seq        uint32
	stream     uint8 // colour 1 / depth 2: admit never sees it, the checker does
	rung       uint8
	key, first bool
	admit      bool
	commit     bool
}

func retarget(t uint8) rungStep { return rungStep{target: t} }

// frag is a packet step; verdict is "admit", "drop", "commit+admit" or
// "commit+drop".
func frag(seq uint32, stream, rung uint8, key, first bool, verdict string) rungStep {
	s := rungStep{pkt: true, seq: seq, stream: stream, rung: rung, key: key, first: first}
	switch verdict {
	case "admit":
		s.admit = true
	case "drop":
	case "commit+admit":
		s.admit, s.commit = true, true
	case "commit+drop":
		s.commit = true
	default:
		panic(verdict)
	}
	return s
}

func TestRungStateAdmit(t *testing.T) {
	const colour, depth = transport.StreamColor, transport.StreamDepth
	cases := []struct {
		name         string
		steps        []rungStep
		wantCur      uint8
		wantSwitches int64
		// delivered lists, per seq, the rung every admitted packet of that
		// seq must have been on; a seq missing here must deliver nothing.
		delivered map[uint32]uint8
	}{
		{
			name: "single-rung stream: everything passes, nothing commits",
			steps: []rungStep{
				frag(0, colour, 0, true, true, "admit"),
				frag(0, colour, 0, true, false, "admit"),
				frag(0, depth, 0, true, true, "admit"),
				frag(1, colour, 0, false, true, "admit"),
			},
			delivered: map[uint32]uint8{0: 0, 1: 0},
		},
		{
			name: "no pending switch: only the current rung's copy passes",
			steps: []rungStep{
				frag(0, colour, 0, true, true, "admit"),
				frag(0, colour, 1, true, true, "drop"),
				frag(0, colour, 2, true, true, "drop"),
			},
			delivered: map[uint32]uint8{0: 0},
		},
		{
			name: "pending switch commits at the next key frame's first fragment, any rung's copy",
			steps: []rungStep{
				frag(0, colour, 0, true, true, "admit"),
				retarget(2),
				frag(1, colour, 0, false, true, "admit"),
				frag(1, colour, 2, false, true, "drop"),
				frag(2, colour, 0, true, true, "commit+drop"),
				frag(2, colour, 0, true, false, "drop"),
				frag(2, colour, 2, true, true, "admit"),
				frag(2, depth, 2, true, true, "admit"),
				frag(2, depth, 0, true, true, "drop"),
			},
			wantCur: 2, wantSwitches: 1,
			delivered: map[uint32]uint8{0: 0, 1: 0, 2: 2},
		},
		{
			name: "non-key frames never commit, nor do later fragments or parity of a key frame",
			steps: []rungStep{
				retarget(1),
				frag(5, colour, 0, false, true, "admit"),
				frag(6, colour, 1, false, true, "drop"),
				frag(7, colour, 0, true, false, "admit"), // key, but not its first data fragment
				frag(7, colour, 1, true, true, "drop"),   // frame 7 already started on rung 0
			},
			wantCur: 0, wantSwitches: 0,
			delivered: map[uint32]uint8{5: 0, 7: 0},
		},
		{
			name: "target flipped between the rung copies of one key frame: frame stays on its rung",
			steps: []rungStep{
				frag(10, colour, 0, true, true, "admit"),
				retarget(1),
				frag(10, colour, 1, true, true, "drop"), // seq 10 settled on rung 0: no commit
				frag(10, colour, 0, true, false, "admit"),
				frag(11, colour, 0, false, true, "admit"),
				frag(20, colour, 0, true, true, "commit+drop"),
				frag(20, colour, 1, true, true, "admit"),
			},
			wantCur: 1, wantSwitches: 1,
			delivered: map[uint32]uint8{10: 0, 11: 0, 20: 1},
		},
		{
			name: "target flipped between the colour and depth copies of one key frame",
			steps: []rungStep{
				frag(10, colour, 0, true, true, "admit"),
				frag(10, colour, 1, true, true, "drop"),
				retarget(1),
				frag(10, depth, 0, true, true, "admit"), // would have committed at the parent
				frag(10, depth, 1, true, true, "drop"),
			},
			wantCur: 0, wantSwitches: 0,
			delivered: map[uint32]uint8{10: 0},
		},
		{
			name: "target flipped back before the new rung's copy arrives: one commit, frame delivered",
			steps: []rungStep{
				frag(9, colour, 0, false, true, "admit"),
				retarget(1),
				frag(10, colour, 0, true, true, "commit+drop"),
				retarget(0),
				frag(10, colour, 1, true, true, "admit"), // no second commit on seq 10
				frag(10, depth, 1, true, true, "admit"),
				frag(10, depth, 0, true, true, "drop"),
				frag(11, colour, 1, false, true, "admit"),
				frag(20, colour, 1, true, true, "commit+drop"),
				frag(20, colour, 0, true, true, "admit"),
			},
			wantCur: 0, wantSwitches: 2,
			delivered: map[uint32]uint8{9: 0, 10: 1, 11: 1, 20: 0},
		},
		{
			name: "a key frame older than one already delivered cannot commit",
			steps: []rungStep{
				frag(12, colour, 0, false, true, "admit"),
				retarget(1),
				frag(10, colour, 1, true, true, "drop"), // late copy of an old key frame
				frag(10, colour, 0, true, true, "admit"),
			},
			wantCur: 0, wantSwitches: 0,
			delivered: map[uint32]uint8{10: 0, 12: 0},
		},
		{
			name: "packets of pre-switch seqs resolve to the pre-switch rung",
			steps: []rungStep{
				frag(9, colour, 0, false, true, "admit"),
				retarget(2),
				frag(10, colour, 2, true, true, "commit+admit"),
				frag(9, colour, 0, false, false, "admit"), // frame 9's tail, reordered past the switch
				frag(9, colour, 2, false, false, "drop"),
				frag(9, depth, 0, false, true, "admit"),
				retarget(1),
				frag(20, colour, 1, true, true, "commit+admit"),
				frag(15, colour, 2, false, false, "admit"), // between the two switches
				frag(9, colour, 0, false, false, "drop"),   // older than both: rung forgotten
			},
			wantCur: 1, wantSwitches: 2,
			delivered: map[uint32]uint8{9: 0, 10: 2, 15: 2, 20: 1},
		},
		{
			name: "a restarted sender's sequence space: served on the current rung, pending switch commits",
			steps: []rungStep{
				retarget(2),
				frag(400, colour, 2, true, true, "commit+admit"),
				frag(450, colour, 2, false, true, "admit"),
				retarget(1),
				frag(451-rungHorizon, colour, 0, false, false, "admit"), // old, but inside the horizon: still the pre-switch rung
				frag(0, colour, 2, true, true, "commit+drop"),           // seq restarts: the key frame commits 2→1
				frag(0, colour, 1, true, true, "admit"),
				frag(0, depth, 1, true, true, "admit"),
				frag(1, colour, 1, false, true, "admit"),
				frag(1, colour, 2, false, true, "drop"),
			},
			wantCur: 1, wantSwitches: 2,
			delivered: map[uint32]uint8{400: 2, 450: 2, 451 - rungHorizon: 0, 0: 1, 1: 1},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var s rungState
			got := map[uint32]uint8{}
			for i, st := range c.steps {
				if !st.pkt {
					s.retarget(st.target, 1e6)
					continue
				}
				admit, commit := s.admit(st.seq, st.rung, st.key, st.first)
				if admit != st.admit || commit != st.commit {
					t.Fatalf("step %d (seq %d stream %d rung %d): admit=%v commit=%v, want %v/%v",
						i, st.seq, st.stream, st.rung, admit, commit, st.admit, st.commit)
				}
				if !admit {
					continue
				}
				if r, seen := got[st.seq]; seen && r != st.rung {
					t.Fatalf("step %d: seq %d delivered on rungs %d and %d", i, st.seq, r, st.rung)
				}
				got[st.seq] = st.rung
			}
			if len(got) != len(c.delivered) {
				t.Fatalf("delivered %v, want %v", got, c.delivered)
			}
			for seq, r := range c.delivered {
				if g, ok := got[seq]; !ok || g != r {
					t.Fatalf("delivered %v, want %v", got, c.delivered)
				}
			}
			if s.cur != c.wantCur || s.switches != c.wantSwitches {
				t.Fatalf("cur=%d switches=%d, want %d/%d", s.cur, s.switches, c.wantCur, c.wantSwitches)
			}
		})
	}
}

// TestRungStateRungFor: NACKs carry no rung, so retransmission lookups
// resolve a seq to the rung it was served on.
func TestRungStateRungFor(t *testing.T) {
	var s rungState
	if r, ok := s.rungFor(123); !ok || r != 0 {
		t.Fatalf("fresh state: rungFor = %d,%v", r, ok)
	}
	s.retarget(2, 1e5)
	s.admit(100, 2, true, true)
	s.retarget(1, 3e5)
	s.admit(200, 1, true, true)
	for _, c := range []struct {
		seq  uint32
		rung uint8
		ok   bool
	}{{250, 1, true}, {200, 1, true}, {199, 2, true}, {100, 2, true}, {99, 0, false}} {
		if r, ok := s.rungFor(c.seq); r != c.rung || ok != c.ok {
			t.Errorf("rungFor(%d) = %d,%v, want %d,%v", c.seq, r, ok, c.rung, c.ok)
		}
	}
	if s.selBps != 3e5 || s.prev != 2 || s.cur != 1 {
		t.Fatalf("state after two switches: %+v", s)
	}
}
