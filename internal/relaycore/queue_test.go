package relaycore

import (
	"fmt"
	"net"
	"testing"
	"time"
)

func udp(i int) *net.UDPAddr {
	return &net.UDPAddr{IP: net.IPv4(10, 0, byte(i>>8), byte(i)), Port: 40000 + i%1000}
}

func mediaFID(seq uint32) frameID { return frameID{media: true, stream: 1, seq: seq} }

func streamFID(stream uint8, seq uint32, key bool) frameID {
	return frameID{media: true, stream: stream, seq: seq, key: key}
}

func tag(frame, frag int) []byte { return []byte(fmt.Sprintf("f%d.%d", frame, frag)) }

// testQueue builds an unscheduled queue (no shard): tests drive drains with
// drainOnce, exactly the pop/write/release sequence writer workers run.
func testQueue(addr net.Addr, depth int) *SubQueue {
	return newSubQueue(addr, depth, 0)
}

// drainAll pumps drainOnce until the queue idles.
func drainAll(t *testing.T, q *SubQueue, out Writer) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !q.Idle() {
		if q.drainOnce(out) == 0 && time.Now().After(deadline) {
			t.Fatalf("queue did not drain: %+v", q.stats())
		}
	}
}

// TestQueueDropWholeFrames: a full ring drops the oldest frame's entire
// fragment run, leaving later frames intact.
func TestQueueDropWholeFrames(t *testing.T) {
	rec := newRecWriter()
	addr := udp(1)
	q := testQueue(addr, 8)
	bp := NewBufPool(64)

	// Frames 1 and 2 (4 fragments each) fill the ring of 8.
	for frame := 1; frame <= 2; frame++ {
		for frag := 0; frag < 4; frag++ {
			if !q.Enqueue(bp.Load(tag(frame, frag)), mediaFID(uint32(frame))) {
				t.Fatalf("enqueue f%d.%d rejected", frame, frag)
			}
		}
	}
	// Frame 3 fragment 0 forces the drop policy: all of frame 1 goes.
	if !q.Enqueue(bp.Load(tag(3, 0)), mediaFID(3)) {
		t.Fatalf("enqueue f3.0 rejected, want accepted after dropping frame 1")
	}
	st := q.stats()
	if st.Dropped != 4 {
		t.Fatalf("dropped = %d, want 4 (whole frame 1)", st.Dropped)
	}
	if st.Depth != 5 {
		t.Fatalf("depth = %d, want 5 (frame 2 + f3.0)", st.Depth)
	}

	drainAll(t, q, rec)
	q.Close()

	want := [][]byte{tag(2, 0), tag(2, 1), tag(2, 2), tag(2, 3), tag(3, 0)}
	got := rec.payloads(addr)
	if len(got) != len(want) {
		t.Fatalf("delivered %d packets, want %d: %q", len(got), len(want), got)
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("delivery[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if e, s, d := q.enqueued.Load(), q.sent.Load(), q.dropped.Load(); e != s+d {
		t.Fatalf("accounting: enqueued %d != sent %d + dropped %d", e, s, d)
	}
	if bp.Live() != 0 {
		t.Fatalf("pool live = %d after drain+close, want 0", bp.Live())
	}
}

// TestQueueDropSkipsInFlightRun: when the oldest queued entries belong to
// the frame currently being written, the drop policy skips them and drops
// the next whole frame instead — a partially-sent run is never split.
func TestQueueDropSkipsInFlightRun(t *testing.T) {
	gw := newGateWriter()
	addr := udp(2)
	q := testQueue(addr, 4)
	bp := NewBufPool(64)

	// A drain pops f1.0 and parks inside WriteTo; frame 1 is now in flight.
	if !q.Enqueue(bp.Load(tag(1, 0)), mediaFID(1)) {
		t.Fatal("enqueue f1.0 rejected")
	}
	firstDrain := make(chan struct{})
	go func() { defer close(firstDrain); q.drainOnce(gw) }()
	<-gw.entered

	// Ring: the in-flight frame's tail, then frame 2.
	for _, e := range []struct{ frame, frag int }{{1, 1}, {1, 2}, {2, 0}, {2, 1}} {
		if !q.Enqueue(bp.Load(tag(e.frame, e.frag)), mediaFID(uint32(e.frame))) {
			t.Fatalf("enqueue f%d.%d rejected", e.frame, e.frag)
		}
	}
	// Full. Frame 3 must evict frame 2 — not frame 1's tail.
	if !q.Enqueue(bp.Load(tag(3, 0)), mediaFID(3)) {
		t.Fatal("enqueue f3.0 rejected, want accepted after dropping frame 2")
	}
	if d := q.dropped.Load(); d != 2 {
		t.Fatalf("dropped = %d, want 2 (frame 2's run)", d)
	}

	// Release the gated writes and drain the rest.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-gw.entered:
			case <-time.After(500 * time.Millisecond):
				return
			}
			gw.proceed <- struct{}{}
		}
	}()
	gw.proceed <- struct{}{} // f1.0
	<-firstDrain             // it must record before the remainder drains
	drainAll(t, q, gw)
	<-done
	q.Close()

	want := []string{"f1.0", "f1.1", "f1.2", "f3.0"}
	got := gw.rec.payloads(addr)
	if len(got) != len(want) {
		t.Fatalf("delivered %d packets %q, want %v", len(got), got, want)
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Fatalf("delivery[%d] = %q, want %q (in-flight run split?)", i, got[i], want[i])
		}
	}
}

// TestQueueRejectsIncomingWhenRingIsInFlight: a ring consisting entirely of
// the in-flight frame's tail has nothing droppable — the incoming packet is
// rejected instead.
func TestQueueRejectsIncomingWhenRingIsInFlight(t *testing.T) {
	gw := newGateWriter()
	addr := udp(3)
	q := testQueue(addr, 4)
	bp := NewBufPool(64)

	if !q.Enqueue(bp.Load(tag(1, 0)), mediaFID(1)) {
		t.Fatal("enqueue f1.0 rejected")
	}
	firstDrain := make(chan struct{})
	go func() { defer close(firstDrain); q.drainOnce(gw) }()
	<-gw.entered // drain parked, frame 1 in flight

	for frag := 1; frag <= 4; frag++ {
		if !q.Enqueue(bp.Load(tag(1, frag)), mediaFID(1)) {
			t.Fatalf("enqueue f1.%d rejected", frag)
		}
	}
	buf := bp.Load(tag(2, 0))
	if q.Enqueue(buf, mediaFID(2)) {
		t.Fatal("enqueue f2.0 accepted, want rejected (ring is one in-flight run)")
	}
	buf.Release() // caller keeps its reference on rejection
	if d := q.dropped.Load(); d != 1 {
		t.Fatalf("dropped = %d, want 1 (the rejected incoming packet)", d)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-gw.entered:
			case <-time.After(500 * time.Millisecond):
				return
			}
			gw.proceed <- struct{}{}
		}
	}()
	gw.proceed <- struct{}{}
	<-firstDrain
	drainAll(t, q, gw)
	<-done
	q.Close()

	if n := gw.rec.count(addr); n != 5 {
		t.Fatalf("delivered %d packets, want 5 (f1.0..f1.4)", n)
	}
	if bp.Live() != 0 {
		t.Fatalf("pool live = %d, want 0", bp.Live())
	}
}

// TestQueueDropPrefersDelta: with both a key frame and a later delta frame
// queued, overflow spends the delta frame and the key frame survives.
func TestQueueDropPrefersDelta(t *testing.T) {
	rec := newRecWriter()
	addr := udp(5)
	q := testQueue(addr, 8)
	bp := NewBufPool(64)

	for frag := 0; frag < 4; frag++ { // key frame 1 (oldest)
		if !q.Enqueue(bp.Load(tag(1, frag)), streamFID(1, 1, true)) {
			t.Fatalf("enqueue key f1.%d rejected", frag)
		}
	}
	for frag := 0; frag < 4; frag++ { // delta frame 2
		if !q.Enqueue(bp.Load(tag(2, frag)), streamFID(1, 2, false)) {
			t.Fatalf("enqueue delta f2.%d rejected", frag)
		}
	}
	// Overflow with a delta: frame 2 (the delta) goes, NOT the older key.
	if !q.Enqueue(bp.Load(tag(3, 0)), streamFID(1, 3, false)) {
		t.Fatal("enqueue f3.0 rejected, want accepted after dropping delta frame 2")
	}
	if d := q.dropped.Load(); d != 4 {
		t.Fatalf("dropped = %d, want 4 (delta frame 2)", d)
	}

	drainAll(t, q, rec)
	q.Close()
	want := []string{"f1.0", "f1.1", "f1.2", "f1.3", "f3.0"}
	got := rec.payloads(addr)
	if len(got) != len(want) {
		t.Fatalf("delivered %q, want %v", got, want)
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Fatalf("delivery[%d] = %q, want %q (key frame not preserved?)", i, got[i], want[i])
		}
	}
}

// TestQueueIncomingDeltaNeverEvictsKey: a ring of key frames rejects an
// incoming delta rather than dropping the key frames later deltas depend on.
func TestQueueIncomingDeltaNeverEvictsKey(t *testing.T) {
	addr := udp(6)
	q := testQueue(addr, 8)
	bp := NewBufPool(64)

	for frame := 1; frame <= 2; frame++ {
		for frag := 0; frag < 4; frag++ {
			if !q.Enqueue(bp.Load(tag(frame, frag)), streamFID(1, uint32(frame), true)) {
				t.Fatalf("enqueue key f%d.%d rejected", frame, frag)
			}
		}
	}
	buf := bp.Load(tag(3, 0))
	if q.Enqueue(buf, streamFID(1, 3, false)) {
		t.Fatal("incoming delta evicted a queued key frame")
	}
	buf.Release()
	if st := q.stats(); st.Depth != 8 || st.Dropped != 1 {
		t.Fatalf("depth=%d dropped=%d, want 8/1 (only the rejected delta)", st.Depth, st.Dropped)
	}

	// An incoming KEY frame, by contrast, may spend the oldest key frame.
	if !q.Enqueue(bp.Load(tag(4, 0)), streamFID(1, 4, true)) {
		t.Fatal("incoming key frame rejected, want accepted after dropping oldest key")
	}
	if st := q.stats(); st.Dropped != 5 {
		t.Fatalf("dropped = %d, want 5 (rejected delta + key frame 1's run)", st.Dropped)
	}
	q.Close()
	if bp.Live() != 0 {
		t.Fatalf("pool live = %d, want 0", bp.Live())
	}
}

// TestQueueInterleavedRunNeverSplit: fragment runs interleaved across
// streams are evicted in full — every fragment of the victim frame goes,
// even non-contiguous ones, and the survivors keep their order.
func TestQueueInterleavedRunNeverSplit(t *testing.T) {
	rec := newRecWriter()
	addr := udp(7)
	q := testQueue(addr, 8)
	bp := NewBufPool(64)

	// Color frame 1 and depth frame 7 interleaved fragment by fragment.
	for frag := 0; frag < 4; frag++ {
		if !q.Enqueue(bp.Load([]byte(fmt.Sprintf("c1.%d", frag))), streamFID(1, 1, false)) {
			t.Fatalf("enqueue c1.%d rejected", frag)
		}
		if !q.Enqueue(bp.Load([]byte(fmt.Sprintf("d7.%d", frag))), streamFID(2, 7, false)) {
			t.Fatalf("enqueue d7.%d rejected", frag)
		}
	}
	// Overflow: the oldest delta (color frame 1) is evicted in full — all
	// four interleaved fragments — never a prefix.
	if !q.Enqueue(bp.Load([]byte("c2.0")), streamFID(1, 2, false)) {
		t.Fatal("enqueue c2.0 rejected")
	}
	if d := q.dropped.Load(); d != 4 {
		t.Fatalf("dropped = %d, want 4 (color frame 1, interleaved)", d)
	}

	drainAll(t, q, rec)
	q.Close()
	want := []string{"d7.0", "d7.1", "d7.2", "d7.3", "c2.0"}
	got := rec.payloads(addr)
	if len(got) != len(want) {
		t.Fatalf("delivered %q, want %v", got, want)
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Fatalf("delivery[%d] = %q, want %q (run split or reordered)", i, got[i], want[i])
		}
	}
}

// TestQueueAdaptiveDepth: the effective ring limit follows REMB swings —
// growing toward capacity on high estimates, shrinking toward the floor on
// low ones — and enqueues beyond the shrunken limit trigger the drop policy.
func TestQueueAdaptiveDepth(t *testing.T) {
	addr := udp(8)
	q := newSubQueue(addr, 1024, 16)
	bp := NewBufPool(2048)

	if st := q.stats(); st.Limit != 1024 {
		t.Fatalf("initial limit = %d, want full capacity 1024", st.Limit)
	}
	// 1 Mbps × 250 ms / 8 / 1200 B ≈ 26 packets.
	q.UpdateBandwidth(1e6)
	if st := q.stats(); st.Limit != 26 {
		t.Fatalf("limit at 1 Mbps = %d, want 26", st.Limit)
	}
	// A high estimate grows the limit back to capacity (clamped).
	q.UpdateBandwidth(64e6)
	if st := q.stats(); st.Limit != 1024 {
		t.Fatalf("limit at 64 Mbps = %d, want capacity 1024", st.Limit)
	}
	// A collapse clamps at the floor.
	q.UpdateBandwidth(1000)
	if st := q.stats(); st.Limit != 16 {
		t.Fatalf("limit at 1 kbps = %d, want floor 16", st.Limit)
	}

	// Enqueues past the shrunken limit shed whole frames: 30 one-fragment
	// delta frames against a limit of 16 keeps depth at the limit.
	payload := make([]byte, 1200)
	for f := uint32(0); f < 30; f++ {
		q.Enqueue(bp.Load(payload), mediaFID(f))
	}
	st := q.stats()
	if st.Depth != 16 {
		t.Fatalf("depth = %d, want the adaptive limit 16", st.Depth)
	}
	if st.Enqueued != st.Sent+st.Dropped+st.Depth {
		t.Fatalf("accounting: enqueued %d != sent %d + dropped %d + depth %d",
			st.Enqueued, st.Sent, st.Dropped, st.Depth)
	}
	q.Close()
	if bp.Live() != 0 {
		t.Fatalf("pool live = %d, want 0", bp.Live())
	}
}

// TestQueueCloseReleasesBacklog: closing with queued entries releases every
// buffer back to the pool (no leak) without writing them.
func TestQueueCloseReleasesBacklog(t *testing.T) {
	rec := newRecWriter()
	addr := udp(4)
	q := testQueue(addr, 16)
	bp := NewBufPool(64)

	bufs := make([]*PacketBuf, 8)
	for i := range bufs {
		bufs[i] = bp.Load(tag(1, i))
		if !q.Enqueue(bufs[i], mediaFID(1)) {
			t.Fatalf("enqueue %d rejected", i)
		}
	}
	q.Close()

	for i, b := range bufs {
		if b.refs.Load() != 0 {
			t.Fatalf("buffer %d has %d refs after close, want 0", i, b.refs.Load())
		}
	}
	if n := rec.count(addr); n != 0 {
		t.Fatalf("closed queue wrote %d packets, want 0", n)
	}
	if bp.Live() != 0 {
		t.Fatalf("pool live = %d after close, want 0", bp.Live())
	}
	// Rejected after close: caller keeps its reference.
	b := bp.Load(tag(2, 0))
	if q.Enqueue(b, mediaFID(2)) {
		t.Fatal("enqueue on closed queue accepted")
	}
	if b.refs.Load() != 1 {
		t.Fatalf("refs = %d after rejected enqueue, want 1", b.refs.Load())
	}
	b.Release()
}
