package relaycore

import (
	"net"
	"testing"
	"time"

	"livo/internal/frametrace"
)

// TestRouterTraceStamps routes frames through a traced sharded router and
// checks every relay hop lands in the ledger: one relay_ingest stamp per
// frame, and one shard_route stamp plus a sub_enqueue/sub_drain pair per
// frame per subscriber, in monotone order on a merged timeline.
func TestRouterTraceStamps(t *testing.T) {
	led := frametrace.NewLedger(4096)
	events := frametrace.NewEventRing(256)
	cfg := testConfig()
	cfg.Shards = 2
	cfg.Trace = led
	cfg.Events = events
	rec := newRecWriter()
	r := NewRouter(rec, senderAddr(), cfg)
	defer r.Close()

	subA, subB := udp(1), udp(2)
	r.Subscribe(subA)
	r.Subscribe(subB)

	const frames, frags = 5, 4
	pool := r.Pool()
	for f := uint32(0); f < frames; f++ {
		for g := uint16(0); g < frags; g++ {
			r.RouteMedia(pool.Load(mediaWire(1, f, g, frags, g == 0 && f == 0, []byte{byte(f)})))
		}
	}
	if !r.WaitIdle(2 * time.Second) {
		t.Fatal("router did not drain")
	}

	perHop := map[frametrace.Hop]int{}
	for _, st := range led.Recent(led.Cap()) {
		perHop[st.Hop]++
		if st.Stream != 1 {
			t.Fatalf("stamp with stream %d, want 1: %+v", st.Stream, st)
		}
	}
	// shard_route is stamped per subscriber so each merged timeline only
	// sees its own shard's stamp (the retx-cache owner's subscriber-less
	// visit stamps nothing). ingest is exact — one stamp per first
	// fragment.
	if perHop[frametrace.HopRelayIngest] != frames || perHop[frametrace.HopShardRoute] != 2*frames {
		t.Fatalf("ingest/shard stamps = %d/%d, want %d/%d",
			perHop[frametrace.HopRelayIngest], perHop[frametrace.HopShardRoute], frames, 2*frames)
	}
	if perHop[frametrace.HopSubEnqueue] != 2*frames || perHop[frametrace.HopSubDrain] != 2*frames {
		t.Fatalf("enqueue/drain stamps = %d/%d, want %d each",
			perHop[frametrace.HopSubEnqueue], perHop[frametrace.HopSubDrain], 2*frames)
	}

	// Merged per-subscriber timelines must be monotone through the relay.
	for _, sub := range []int32{0, 1} {
		c := frametrace.NewCollector()
		c.Add(led)
		tls := c.Merge(sub)
		if len(tls) != frames {
			t.Fatalf("sub %d: merged %d timelines, want %d", sub, len(tls), frames)
		}
		for _, tl := range tls {
			chain := []frametrace.Hop{frametrace.HopRelayIngest, frametrace.HopShardRoute,
				frametrace.HopSubEnqueue, frametrace.HopSubDrain}
			prev := int64(-1 << 62)
			for _, h := range chain {
				ts, ok := tl.Get(h)
				if !ok {
					t.Fatalf("sub %d frame %d: hop %s missing", sub, tl.Seq, h)
				}
				if ts < prev {
					t.Fatalf("sub %d frame %d: hop %s went backwards", sub, tl.Seq, h)
				}
				prev = ts
			}
		}
	}

	// Subscriber ids surface through Stats for the /debugz/subscribers view.
	st := r.Stats()
	ids := map[int32]bool{}
	for _, ss := range st.Subs {
		ids[ss.ID] = true
		if ss.LastActiveAgeMs < 0 {
			t.Fatalf("negative last-active age: %+v", ss)
		}
	}
	if !ids[0] || !ids[1] {
		t.Fatalf("subscriber ids not assigned: %+v", st.Subs)
	}
	if events.Recorded() != 0 {
		t.Fatalf("clean run recorded %d events", events.Recorded())
	}
}

// TestQueueDropEvents forces the drop policy through all three reasons
// and checks each lands in the event ring with the right classification.
func TestQueueDropEvents(t *testing.T) {
	events := frametrace.NewEventRing(64)
	pool := NewBufPool(64)
	mk := func(seq uint32, key bool) (*PacketBuf, frameID) {
		return pool.Load([]byte{1}), frameID{media: true, stream: 1, seq: seq, key: key}
	}
	newQ := func() *SubQueue {
		q := newSubQueue(&net.UDPAddr{IP: net.IPv4(10, 0, 0, 1), Port: 1}, 4, 4)
		q.sub = 7
		q.events = events
		return q
	}

	// Delta eviction: fill with deltas, the 5th enqueue evicts the oldest.
	q := newQ()
	for i := uint32(0); i < 5; i++ {
		buf, fid := mk(i, false)
		if !q.Enqueue(buf, fid) {
			t.Fatalf("enqueue %d rejected", i)
		}
	}
	evs := events.Recent(10)
	if len(evs) != 1 || evs[0].Kind != frametrace.EvFrameDrop ||
		frametrace.DropReason(evs[0].Val) != frametrace.DropDelta || evs[0].Seq != 0 || evs[0].Sub != 7 {
		t.Fatalf("delta eviction event: %+v", evs)
	}
	q.Close()

	// Key-for-key eviction and delta rejection against an all-key backlog.
	q = newQ()
	for i := uint32(10); i < 14; i++ {
		buf, fid := mk(i, true)
		q.Enqueue(buf, fid)
	}
	if buf, fid := mk(20, false); q.Enqueue(buf, fid) {
		t.Fatal("delta admitted over an all-key backlog")
	} else {
		buf.Release()
	}
	if buf, fid := mk(21, true); !q.Enqueue(buf, fid) {
		t.Fatal("incoming key rejected")
	}
	evs = events.Recent(10)
	last, prev := evs[len(evs)-1], evs[len(evs)-2]
	if frametrace.DropReason(prev.Val) != frametrace.DropReject || prev.Seq != 20 {
		t.Fatalf("reject event: %+v", prev)
	}
	if frametrace.DropReason(last.Val) != frametrace.DropKey || last.Seq != 10 {
		t.Fatalf("key eviction event: %+v", last)
	}
	q.Close()
	if live := pool.Live(); live != 0 {
		t.Fatalf("pool leak: %d live buffers", live)
	}
}
