package relaycore

import (
	"math/rand"
	"net"
	"testing"

	"livo/internal/transport"
)

// TestREMBMinTracker cross-checks the O(1)-amortized minimum against a
// brute-force rescan over a randomized update/remove schedule.
func TestREMBMinTracker(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := newREMBMin()
	ref := make(map[Key]float64)
	keys := make([]Key, 16)
	for i := range keys {
		keys[i] = Key{port: i + 1}
	}
	bruteMin := func() (float64, bool) {
		min, ok := 0.0, false
		for _, v := range ref {
			if !ok || v < min {
				min, ok = v, true
			}
		}
		return min, ok
	}
	for op := 0; op < 5000; op++ {
		k := keys[rng.Intn(len(keys))]
		if rng.Float64() < 0.2 {
			gotMin, gotOK := m.Remove(k)
			delete(ref, k)
			wantMin, wantOK := bruteMin()
			if gotOK != wantOK || (wantOK && gotMin != wantMin) {
				t.Fatalf("op %d: Remove → (%g,%v), brute force (%g,%v)", op, gotMin, gotOK, wantMin, wantOK)
			}
			continue
		}
		v := float64(rng.Intn(1000)) * 1e4
		got := m.Update(k, v)
		ref[k] = v
		want, _ := bruteMin()
		if got != want {
			t.Fatalf("op %d: Update(%v,%g) → min %g, brute force %g", op, k.port, v, got, want)
		}
		if m.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", op, m.Len(), len(ref))
		}
	}
}

func TestNACKCoalesceWindow(t *testing.T) {
	const window = int64(50e6) // 50 ms
	c := newNACKCoalescer(window)
	k := nackKey{seq: 7, frag: 3, stream: 1}
	if !c.ShouldForward(k, 0) {
		t.Fatal("first NACK suppressed")
	}
	if c.ShouldForward(k, window-1) {
		t.Fatal("duplicate NACK inside window forwarded")
	}
	if !c.ShouldForward(nackKey{seq: 7, frag: 4, stream: 1}, 1) {
		t.Fatal("NACK for a different fragment suppressed")
	}
	if !c.ShouldForward(nackKey{seq: 7, frag: 3, stream: 2}, 1) {
		t.Fatal("NACK for a different stream suppressed")
	}
	if !c.ShouldForward(k, window+1) {
		t.Fatal("NACK after window expiry suppressed")
	}
}

// TestNACKCoalesceWindowBoundary: the window is half-open — a repeat
// exactly one window after the stamp forwards (now-t < window suppresses,
// now-t == window does not), and forwarding restamps the entry so the
// next window measures from the forwarded request.
func TestNACKCoalesceWindowBoundary(t *testing.T) {
	const window = int64(50e6)
	c := newNACKCoalescer(window)
	k := nackKey{seq: 1, frag: 0, stream: 1}
	if !c.ShouldForward(k, 100) {
		t.Fatal("first NACK suppressed")
	}
	if c.ShouldForward(k, 100+window-1) {
		t.Fatal("NACK one tick inside the window forwarded")
	}
	if !c.ShouldForward(k, 100+window) {
		t.Fatal("NACK exactly at the window boundary suppressed")
	}
	// Restamped at 100+window: the next boundary is one full window later.
	if c.ShouldForward(k, 100+2*window-1) {
		t.Fatal("NACK inside the restamped window forwarded")
	}
	if !c.ShouldForward(k, 100+2*window) {
		t.Fatal("NACK at the restamped boundary suppressed")
	}
}

// TestNACKCoalesceMapMaxForcedSweep: when the stamp map outgrows
// nackMapMax the next insert sweeps regardless of the insert cadence
// counter, and a swept-out fragment is forwarded again on re-request.
func TestNACKCoalesceMapMaxForcedSweep(t *testing.T) {
	const window = int64(50e6)
	c := newNACKCoalescer(window)
	// Overfill with in-window entries: they survive sweeps (not stale yet),
	// so the map really does exceed the cap.
	for i := 0; i <= nackMapMax; i++ {
		c.ShouldForward(nackKey{seq: uint32(i), frag: 0, stream: 1}, 0)
	}
	if len(c.last) <= nackMapMax {
		t.Fatalf("precondition: map holds %d entries, want > %d", len(c.last), nackMapMax)
	}
	// One window later everything above is stale; the very next insert must
	// trip the size-forced sweep even though the cadence counter was just
	// reset by the insert at i == nackMapMax... so force a non-cadence
	// position by a single insert.
	if !c.ShouldForward(nackKey{seq: 1 << 30, frag: 0, stream: 1}, window) {
		t.Fatal("fresh NACK suppressed")
	}
	if len(c.last) > 2 {
		t.Fatalf("forced sweep left %d entries, want <= 2", len(c.last))
	}
	// The old generation was swept: re-requesting one of those fragments
	// forwards again instead of being treated as a duplicate.
	if !c.ShouldForward(nackKey{seq: 3, frag: 0, stream: 1}, window+1) {
		t.Fatal("re-request after sweep suppressed")
	}
}

// TestNACKCoalesceSweep: a moving sequence window must not grow the stamp
// map without bound — stale entries are swept opportunistically.
func TestNACKCoalesceSweep(t *testing.T) {
	const window = int64(50e6)
	c := newNACKCoalescer(window)
	// Old generation: enough inserts to arm the sweep counter.
	for i := 0; i < nackSweepEvery; i++ {
		c.ShouldForward(nackKey{seq: uint32(i), frag: 0, stream: 1}, 0)
	}
	// New generation, two windows later: sweeping should evict the old one.
	now := 2 * window
	for i := 0; i < nackSweepEvery; i++ {
		c.ShouldForward(nackKey{seq: uint32(i), frag: 1, stream: 1}, now)
	}
	if len(c.last) > nackSweepEvery+1 {
		t.Fatalf("stamp map holds %d entries after sweep, want <= %d", len(c.last), nackSweepEvery+1)
	}
}

func TestPLIGateWindow(t *testing.T) {
	const window = int64(250e6) // matches the transport PLITracker's resend interval
	g := pliGate{window: window}
	if !g.ShouldForward(0) {
		t.Fatal("first PLI suppressed")
	}
	for _, now := range []int64{1, window / 2, window - 1} {
		if g.ShouldForward(now) {
			t.Fatalf("PLI at %dns forwarded inside the window", now)
		}
	}
	if !g.ShouldForward(window) {
		t.Fatal("PLI at window boundary suppressed")
	}
	// A key frame re-arms the gate immediately.
	g.OnKeyFrame()
	if !g.ShouldForward(window + 1) {
		t.Fatal("PLI after key frame suppressed")
	}
}

// TestPLIGateRearmNearExpiry: a key frame passing just before the window
// expires re-opens the gate immediately — and the forwarded PLI starts a
// fresh window from its own timestamp, not the old one's remainder.
func TestPLIGateRearmNearExpiry(t *testing.T) {
	const window = int64(250e6)
	g := pliGate{window: window}
	if !g.ShouldForward(0) {
		t.Fatal("first PLI suppressed")
	}
	// Key frame lands one tick before the window would have expired.
	g.OnKeyFrame()
	if !g.ShouldForward(window - 1) {
		t.Fatal("PLI after key-frame re-arm suppressed inside the old window")
	}
	// The forward restarted the window at window-1: the old boundary
	// (2*window-2 measured from 0) must still be suppressed...
	if g.ShouldForward(2*window - 2) {
		t.Fatal("PLI inside the restarted window forwarded")
	}
	// ...and the new boundary forwards.
	if !g.ShouldForward(2*window - 1) {
		t.Fatal("PLI at the restarted window boundary suppressed")
	}
	// Re-arm racing a same-instant PLI burst: exactly one forwards.
	g.OnKeyFrame()
	if !g.ShouldForward(2 * window) {
		t.Fatal("PLI after second re-arm suppressed")
	}
	if g.ShouldForward(2 * window) {
		t.Fatal("duplicate PLI at the same instant forwarded twice")
	}
}

// TestRouterProbesStopAtTheRelay: a subscriber's RTT probe is echoed to that
// subscriber alone; pongs, and probes from strangers, go nowhere. None of it
// reaches the sender.
func TestRouterProbesStopAtTheRelay(t *testing.T) {
	rec := newRecWriter()
	r := NewRouter(rec, senderAddr(), testConfig())
	defer r.Close()
	sub, other, stranger := udp(1), udp(2), udp(3)
	r.Subscribe(sub)
	r.Subscribe(other)

	ping := []byte{transport.FBPing, 1, 2, 3, 4, 5, 6, 7, 8}
	r.RouteFeedback(append([]byte(nil), ping...), sub)
	r.RouteFeedback(append([]byte(nil), ping...), stranger)
	r.RouteFeedback([]byte{transport.FBPong, 1, 2, 3, 4, 5, 6, 7, 8}, sub)

	got := rec.payloads(sub)
	if len(got) != 1 || got[0][0] != transport.FBPong || string(got[0][1:]) != string(ping[1:]) {
		t.Fatalf("pinger received %x, want one pong carrying the ping's payload", got)
	}
	for _, a := range []net.Addr{other, stranger, senderAddr()} {
		if n := rec.count(a); n != 0 {
			t.Fatalf("%v received %d packets, want none", a, n)
		}
	}
}
