package transport

import (
	"math/rand"
	"testing"
	"time"
)

// serial is a packet's place in the pacer's schedule: its serialisation
// time at twice rate.
func serial(size int, rate float64) time.Duration {
	return time.Duration(float64(size) * 8 / (2 * rate) * float64(time.Second))
}

func sized(n, size int) [][]byte {
	ws := make([][]byte, n)
	for i := range ws {
		ws[i] = make([]byte, size)
	}
	return ws
}

// TestPaceDue table-tests the pacer's schedule step: which packets leave at
// a wake-up, and when the next one is due.
func TestPaceDue(t *testing.T) {
	const (
		rate = 5e6
		size = 1250 // 1 ms apart at 2·rate
	)
	gap := serial(size, rate)
	inCredit := int(PaceCredit/gap) + 1 // the schedule's first packet sits PaceCredit back
	t0 := time.Unix(1000, 0)
	for _, tc := range []struct {
		name      string
		next, now time.Time
		pkts      int
		want      int
		wantAfter time.Time
	}{
		{"idle since start: a frame within the credit goes in one take",
			time.Time{}, t0, inCredit, inCredit, t0.Add(-PaceCredit + time.Duration(inCredit)*gap)},
		{"idle for a second: no more credit than after a short gap",
			t0.Add(-time.Second), t0, 3 * inCredit, inCredit, t0.Add(-PaceCredit + time.Duration(inCredit)*gap)},
		{"a stall longer than the credit is not a bigger burst",
			t0.Add(-200 * time.Millisecond), t0, 1000, inCredit, t0.Add(-PaceCredit + time.Duration(inCredit)*gap)},
		{"inside the credit the schedule is kept, not reset",
			t0.Add(-2 * gap), t0, 10, 3, t0.Add(gap)},
		{"not yet due: nothing, and the schedule is unchanged",
			t0.Add(gap / 2), t0, 4, 0, t0.Add(gap / 2)},
		{"due exactly now",
			t0, t0, 4, 1, t0.Add(gap)},
	} {
		n, after := PaceDue(tc.next, tc.now, rate, sized(tc.pkts, size))
		if n != tc.want || !after.Equal(tc.wantAfter) {
			t.Errorf("%s: took %d, next at %v; want %d, next at %v", tc.name, n, after.Sub(t0), tc.want, tc.wantAfter.Sub(t0))
		}
	}

	// A frame larger than the credit: after the first take the remainder
	// leaves one packet per serialisation time.
	frame := sized(inCredit+5, size)
	n, next := PaceDue(time.Time{}, t0, rate, frame)
	if n != inCredit {
		t.Fatalf("first take %d packets, want %d", n, inCredit)
	}
	for rest := frame[n:]; len(rest) > 0; rest = rest[1:] {
		if k, at := PaceDue(next, next.Add(-time.Nanosecond), rate, rest); k != 0 || !at.Equal(next) {
			t.Fatalf("%d packets left: %d sent a nanosecond early", len(rest), k)
		}
		var k int
		prev := next
		if k, next = PaceDue(next, next, rate, rest); k != 1 || next.Sub(prev) != gap {
			t.Fatalf("%d packets left: took %d, then %v to the next; want 1, then %v", len(rest), k, next.Sub(prev), gap)
		}
	}
	// The rate floor keeps a zero or missing REMB from stalling the pacer.
	if _, at := PaceDue(t0, t0, 0, sized(1, size)); at.Sub(t0) != serial(size, 1e5) {
		t.Fatalf("rate 0 spaces a packet %v, want the 100 kbps floor's %v", at.Sub(t0), serial(size, 1e5))
	}
}

// TestPaceRateBound runs the schedule step on a virtual clock over frames
// of random size arriving at random gaps, with wake-ups late by up to
// 50 ms: in every window, from the start of any wake-up's take to the last
// packet of any later one, the bytes sent stay within 2·rate·window plus
// the credit (and the packet that ends the window), so neither an idle gap
// nor a late timer buys a bigger burst. Every packet is sent.
func TestPaceRateBound(t *testing.T) {
	const rate = 2e6
	rng := rand.New(rand.NewSource(7))
	t0 := time.Unix(1000, 0)
	now, arrive := t0, t0
	var next time.Time
	// Bytes are counted as serialisation time at 2·rate. floor is the
	// least, over the takes so far, of what had been sent before the take
	// minus when it began.
	var sent, total time.Duration
	floor := time.Duration(1<<63 - 1)
	for f := 0; f < 1000; f++ {
		arrive = arrive.Add(time.Duration(rng.Int63n(int64(80 * time.Millisecond))))
		if now.Before(arrive) {
			now = arrive
		}
		wires := make([][]byte, 1+rng.Intn(30))
		for i := range wires {
			wires[i] = make([]byte, 100+rng.Intn(1200))
			total += serial(len(wires[i]), rate)
		}
		for len(wires) > 0 {
			var n int
			n, next = PaceDue(next, now, rate, wires)
			if n == 0 {
				// The timer fires at next or up to 50 ms later.
				now = next.Add(time.Duration(rng.Int63n(int64(50 * time.Millisecond))))
				continue
			}
			if d := sent - now.Sub(t0); d < floor {
				floor = d
			}
			for _, w := range wires[:n-1] {
				sent += serial(len(w), rate)
			}
			if over := sent - now.Sub(t0) - floor - PaceCredit; over > 0 {
				t.Fatalf("frame %d: a window ending %v in sent %v more than 2·rate·window + credit", f, now.Sub(t0), over)
			}
			sent += serial(len(wires[n-1]), rate)
			wires = wires[n:]
		}
	}
	if sent != total {
		t.Fatalf("sent %v of %v", sent, total)
	}
}
