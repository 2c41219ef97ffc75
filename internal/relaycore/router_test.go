package relaycore

import (
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"livo/internal/netem"
	"livo/internal/telemetry"
	"livo/internal/transport"
)

// mediaWire builds one on-the-wire media packet (magic + transport header).
func mediaWire(stream uint8, seq uint32, frag, count uint16, key bool, payload []byte) []byte {
	p := transport.Packet{
		Stream: stream, FrameSeq: seq, FragIndex: frag, FragCount: count,
		Key: key, Payload: payload,
	}
	return append([]byte{transport.MediaMagic}, p.Marshal()...)
}

func senderAddr() *net.UDPAddr { return &net.UDPAddr{IP: net.IPv4(10, 9, 9, 9), Port: 31000} }

func testConfig() Config {
	return Config{Telemetry: telemetry.NewRegistry()}
}

// fakeClock is an injectable Config.now.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) Now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *fakeClock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

func TestRouterFanoutDelivery(t *testing.T) {
	rec := newRecWriter()
	r := NewRouter(rec, senderAddr(), testConfig())
	defer r.Close()

	subs := make([]*net.UDPAddr, 8)
	for i := range subs {
		subs[i] = udp(i + 1)
		r.Subscribe(subs[i])
	}
	if r.Subscribers() != 8 {
		t.Fatalf("Subscribers = %d, want 8", r.Subscribers())
	}
	// Duplicate subscribe is idempotent.
	r.Subscribe(&net.UDPAddr{IP: subs[0].IP, Port: subs[0].Port})
	if r.Subscribers() != 8 {
		t.Fatalf("Subscribers = %d after duplicate subscribe, want 8", r.Subscribers())
	}

	const frames, frags = 25, 4
	pool := r.Pool()
	for f := uint32(0); f < frames; f++ {
		for g := uint16(0); g < frags; g++ {
			r.RouteMedia(pool.Load(mediaWire(1, f, g, frags, false, []byte{byte(f), byte(g)})))
		}
	}
	if !r.WaitIdle(2 * time.Second) {
		t.Fatal("router did not drain")
	}
	for i, a := range subs {
		got := rec.payloads(a)
		if len(got) != frames*frags {
			t.Fatalf("sub %d received %d packets, want %d", i, len(got), frames*frags)
		}
		for j, b := range got {
			f, g := uint32(j/frags), uint16(j%frags)
			if binary.BigEndian.Uint32(b[2:6]) != f || binary.BigEndian.Uint16(b[6:8]) != g {
				t.Fatalf("sub %d delivery %d out of order", i, j)
			}
		}
	}
	st := r.Stats()
	if st.Drops != 0 {
		t.Fatalf("drops = %d, want 0", st.Drops)
	}
	if st.MediaPackets != frames*frags {
		t.Fatalf("media packets = %d, want %d", st.MediaPackets, frames*frags)
	}
}

// stallWriter blocks writes to one address until released; other addresses
// pass through to the recorder.
type stallWriter struct {
	rec     *recWriter
	stalled string
	release chan struct{}
	blocked atomic.Int64
}

func (w *stallWriter) WriteTo(p []byte, a net.Addr) (int, error) {
	if a.String() == w.stalled {
		w.blocked.Add(1)
		<-w.release
	}
	return w.rec.WriteTo(p, a)
}

// TestStalledSubscriberIsolation: one receiver whose socket never drains
// must not reduce delivery to healthy receivers (the acceptance bound is
// ≤10%; with per-subscriber queues it is 0%). A stalled queue parks at most
// one writer worker; stealing keeps the rest of the plane draining, with
// one shard and with several.
//
// The producer is paced on the healthy receivers' own progress — it never
// runs more than half a queue ahead of the slowest of them — so a healthy
// queue cannot overflow however slowly the host schedules the writers, and
// the only way to fail is a healthy receiver blocked or dropped behind the
// stalled one (the watchdog turns that hang into a failure).
func TestStalledSubscriberIsolation(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			stalled := udp(99)
			w := &stallWriter{rec: newRecWriter(), stalled: stalled.String(), release: make(chan struct{})}
			const depth = 64
			cfg := testConfig()
			cfg.queueDepth = depth
			cfg.Shards = shards
			r := NewRouter(w, senderAddr(), cfg)

			healthy := make([]*net.UDPAddr, 4)
			for i := range healthy {
				healthy[i] = udp(i + 1)
				r.Subscribe(healthy[i])
			}
			r.Subscribe(stalled)

			// awaitHealthy blocks until every healthy receiver has been
			// delivered at least n packets.
			watchdog := time.Now().Add(time.Minute)
			awaitHealthy := func(n int) {
				for _, a := range healthy {
					for w.rec.count(a) < n {
						if time.Now().After(watchdog) {
							t.Fatalf("healthy sub %s stuck at %d/%d packets while peer stalled", a, w.rec.count(a), n)
						}
						time.Sleep(50 * time.Microsecond)
					}
				}
			}

			const frames, frags = 100, 8 // 800 packets >> stalled queue depth
			pool := r.Pool()
			for f := uint32(0); f < frames; f++ {
				for g := uint16(0); g < frags; g++ {
					r.RouteMedia(pool.Load(mediaWire(1, f, g, frags, false, nil)))
				}
				awaitHealthy(int(f+1)*frags - depth/2)
			}
			awaitHealthy(frames * frags)

			var stalledDrops int64
			for _, ss := range r.Stats().Subs {
				if ss.Addr == stalled.String() {
					stalledDrops = ss.Dropped
				} else if ss.Dropped != 0 {
					t.Fatalf("healthy sub %s dropped %d packets while peer stalled", ss.Addr, ss.Dropped)
				}
			}
			if stalledDrops == 0 {
				t.Fatal("stalled subscriber accrued no drops; queue bound not enforced")
			}
			close(w.release) // unpark before Close so the writer goroutine can exit
			r.Close()
		})
	}
}

func TestRouterUnsubscribe(t *testing.T) {
	rec := newRecWriter()
	r := NewRouter(rec, senderAddr(), testConfig())
	defer r.Close()

	s1, s2, s3 := udp(1), udp(2), udp(3)
	r.Subscribe(s1)
	r.Subscribe(s2)
	r.Subscribe(s3)
	if p := r.Primary(); p == nil || KeyOf(p) != KeyOf(s1) {
		t.Fatalf("primary = %v, want %v", p, s1)
	}
	if !r.Unsubscribe(s1) {
		t.Fatal("Unsubscribe(s1) = false, want true")
	}
	if p := r.Primary(); p == nil || KeyOf(p) != KeyOf(s2) {
		t.Fatalf("primary after unsubscribe = %v, want repointed to %v", p, s2)
	}
	if r.Subscribers() != 2 {
		t.Fatalf("Subscribers = %d, want 2", r.Subscribers())
	}
	if r.Unsubscribe(s1) {
		t.Fatal("Unsubscribe of a departed address = true, want false")
	}
	// s1's queue is closed: media no longer reaches it.
	pool := r.Pool()
	r.RouteMedia(pool.Load(mediaWire(1, 0, 0, 1, false, nil)))
	if !r.WaitIdle(time.Second) {
		t.Fatal("router did not drain")
	}
	if n := rec.count(s1); n != 0 {
		t.Fatalf("departed subscriber received %d packets", n)
	}
	if n := rec.count(s2); n != 1 {
		t.Fatalf("remaining subscriber received %d packets, want 1", n)
	}
}

// TestUnsubscribeEvictsREMB: a departed slow subscriber must stop pinning
// the forwarded bandwidth minimum.
func TestUnsubscribeEvictsREMB(t *testing.T) {
	rec := newRecWriter()
	sender := senderAddr()
	r := NewRouter(rec, sender, testConfig())
	defer r.Close()

	fast, slow := udp(1), udp(2)
	r.Subscribe(fast)
	r.Subscribe(slow)

	remb := func(bps float64) []byte { return transport.AppendREMB(nil, bps) }
	lastREMB := func() float64 {
		msgs := rec.payloads(sender)
		for i := len(msgs) - 1; i >= 0; i-- {
			if msgs[i][0] == transport.FBREMB {
				v, err := transport.UnmarshalREMB(msgs[i])
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
		}
		t.Fatal("no REMB reached the sender")
		return 0
	}

	r.RouteFeedback(remb(8e6), fast)
	r.RouteFeedback(remb(1e6), slow)
	if got := lastREMB(); got != 1e6 {
		t.Fatalf("forwarded min = %g, want 1e6 (slow subscriber)", got)
	}
	if !r.Unsubscribe(slow) {
		t.Fatal("Unsubscribe(slow) failed")
	}
	r.RouteFeedback(remb(8e6), fast)
	if got := lastREMB(); got != 8e6 {
		t.Fatalf("forwarded min = %g after eviction, want 8e6", got)
	}
}

// TestPoseForwardingPrimaryOnly: poses pass only from the primary viewer,
// matched by canonical key (no String() comparisons on the packet path).
func TestPoseForwardingPrimaryOnly(t *testing.T) {
	rec := newRecWriter()
	sender := senderAddr()
	r := NewRouter(rec, sender, testConfig())
	defer r.Close()

	primary, other := udp(1), udp(2)
	r.Subscribe(primary)
	r.Subscribe(other)

	pose := []byte{transport.FBPose, 1, 2, 3}
	r.RouteFeedback(pose, other)
	if n := rec.count(sender); n != 0 {
		t.Fatalf("non-primary pose forwarded (%d messages)", n)
	}
	// Equivalent address value (fresh allocation) still matches the primary.
	r.RouteFeedback(pose, &net.UDPAddr{IP: primary.IP, Port: primary.Port})
	if n := rec.count(sender); n != 1 {
		t.Fatalf("primary pose not forwarded (%d messages)", n)
	}
	// Primary departs; the repointed primary's poses pass.
	r.Unsubscribe(primary)
	r.RouteFeedback(pose, other)
	if n := rec.count(sender); n != 2 {
		t.Fatalf("repointed primary's pose not forwarded (%d messages)", n)
	}
}

// TestPLIBurst64: a simultaneous PLI burst from 64 subscribers reaches the
// sender as at most 2 messages per refresh window (acceptance criterion).
func TestPLIBurst64(t *testing.T) {
	rec := newRecWriter()
	sender := senderAddr()
	clk := &fakeClock{}
	cfg := testConfig()
	cfg.now = clk.Now
	r := NewRouter(rec, sender, cfg)
	defer r.Close()

	subs := make([]*net.UDPAddr, 64)
	for i := range subs {
		subs[i] = udp(i + 1)
		r.Subscribe(subs[i])
	}
	pli := []byte{transport.FBPLI}
	burst := func() {
		for _, a := range subs {
			r.RouteFeedback(pli, a)
			clk.Advance(10 * time.Microsecond) // bursts are near- not exactly simultaneous
		}
	}
	burst()
	if n := rec.count(sender); n != 1 {
		t.Fatalf("first burst forwarded %d PLIs, want 1", n)
	}
	// Still inside the window: another full burst adds nothing.
	clk.Advance(100 * time.Millisecond)
	burst()
	if n := rec.count(sender); n != 1 {
		t.Fatalf("in-window burst forwarded %d total PLIs, want 1", n)
	}
	// Window expires (sender still hasn't refreshed): one more escapes.
	clk.Advance(250 * time.Millisecond)
	burst()
	if n := rec.count(sender); n != 2 {
		t.Fatalf("post-window burst forwarded %d total PLIs, want 2", n)
	}
	st := r.Stats()
	if st.PLIForwarded != 2 || st.PLISuppressed != 64*3-2 {
		t.Fatalf("PLI stats fwd=%d sup=%d, want 2/%d", st.PLIForwarded, st.PLISuppressed, 64*3-2)
	}
	// A key frame re-arms the gate: the next loss reports immediately.
	clk.Advance(time.Millisecond)
	r.RouteMedia(r.Pool().Load(mediaWire(1, 9, 0, 1, true, nil)))
	r.RouteFeedback(pli, subs[0])
	if n := rec.count(sender); n != 3 {
		t.Fatalf("post-keyframe PLI suppressed (%d total)", n)
	}
}

// TestNACKCoalesceAcrossSubscribers: the same lost fragment NACKed by many
// subscribers leaves once; distinct fragments all pass.
func TestNACKCoalesceAcrossSubscribers(t *testing.T) {
	rec := newRecWriter()
	sender := senderAddr()
	clk := &fakeClock{}
	cfg := testConfig()
	cfg.now = clk.Now
	r := NewRouter(rec, sender, cfg)
	defer r.Close()

	subs := make([]*net.UDPAddr, 16)
	for i := range subs {
		subs[i] = udp(i + 1)
		r.Subscribe(subs[i])
	}
	for _, a := range subs {
		r.RouteFeedback(transport.MarshalNACK(1, 42, 3), a)
	}
	if n := rec.count(sender); n != 1 {
		t.Fatalf("same-fragment NACKs forwarded %d times, want 1", n)
	}
	r.RouteFeedback(transport.MarshalNACK(1, 42, 4), subs[0])
	r.RouteFeedback(transport.MarshalNACK(2, 42, 3), subs[1])
	if n := rec.count(sender); n != 3 {
		t.Fatalf("distinct-fragment NACKs: %d forwarded, want 3", n)
	}
	st := r.Stats()
	if st.NACKForwarded != 3 || st.NACKCoalesced != 15 {
		t.Fatalf("NACK stats fwd=%d coal=%d, want 3/15", st.NACKForwarded, st.NACKCoalesced)
	}
}

// TestSubscribeUnsubscribeConcurrentWithRoute exercises membership churn
// against a hot routing loop; run under -race.
func TestSubscribeUnsubscribeConcurrentWithRoute(t *testing.T) {
	rec := newRecWriter()
	r := NewRouter(rec, senderAddr(), testConfig())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // membership churn
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			a := udp(1 + i%32)
			r.Subscribe(a)
			if i%3 == 0 {
				r.Unsubscribe(a)
			}
			i++
		}
	}()
	pool := r.Pool()
	for f := uint32(0); f < 500; f++ {
		for g := uint16(0); g < 4; g++ {
			r.RouteMedia(pool.Load(mediaWire(1, f, g, 4, false, nil)))
		}
		if f%10 == 0 {
			r.RouteFeedback(transport.AppendREMB(nil, float64(1e6+f)), udp(1+int(f)%32))
		}
	}
	close(stop)
	wg.Wait()
	r.WaitIdle(2 * time.Second)
	r.Close()
}

// TestRouterChaos64: 64 subscribers under bursty loss and reordering on the
// inbound path, with one shard and with several. Asserts the
// drop-accounting invariant on every queue, full drain, zero leaked pool
// buffers, and no goroutine leak after Close.
func TestRouterChaos64(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			rec := newRecWriter()
			cfg := testConfig()
			cfg.queueDepth = 256
			cfg.Shards = shards
			r := NewRouter(rec, senderAddr(), cfg)

			const nSubs = 64
			for i := 0; i < nSubs; i++ {
				r.Subscribe(udp(i + 1))
			}

			chaos := netem.NewChaos(netem.ChaosConfig{
				Seed:        7,
				PEnterBurst: 0.02, PExitBurst: 0.10,
				LossGood: 0.01, LossBad: 0.5,
				ReorderProb: 0.05, ReorderDelay: 0.03,
				DupProb: 0.01,
			})

			packets := 3000
			if testing.Short() {
				packets = 600
			}
			pool := r.Pool()
			routed := 0
			for i := 0; i < packets; i++ {
				wire := mediaWire(1, uint32(i/8), uint16(i%8), 8, i%480 == 0, []byte(fmt.Sprintf("p%d", i)))
				for _, d := range chaos.Apply(wire) {
					r.RouteMedia(pool.Load(d.Payload))
					routed++
				}
				if i%100 == 0 { // interleave feedback churn from random subscribers
					r.RouteFeedback([]byte{transport.FBPLI}, udp(1+i%nSubs))
					r.RouteFeedback(transport.MarshalNACK(1, uint32(i/8), uint16(i%8)), udp(1+(i+3)%nSubs))
					r.RouteFeedback(transport.AppendREMB(nil, float64(1e6*(1+i%5))), udp(1+(i+7)%nSubs))
				}
			}
			if chaos.Dropped() == 0 || chaos.Reordered() == 0 {
				t.Fatalf("chaos injected no faults (dropped=%d reordered=%d)", chaos.Dropped(), chaos.Reordered())
			}
			if !r.WaitIdle(5 * time.Second) {
				t.Fatal("router did not drain under chaos")
			}
			st := r.Stats()
			if st.MediaPackets != int64(routed) {
				t.Fatalf("media packets = %d, want %d", st.MediaPackets, routed)
			}
			for _, ss := range st.Subs {
				if ss.Depth != 0 {
					t.Fatalf("sub %s depth = %d after WaitIdle", ss.Addr, ss.Depth)
				}
				if ss.Enqueued != ss.Sent+ss.Dropped {
					t.Fatalf("sub %s accounting: enqueued %d != sent %d + dropped %d",
						ss.Addr, ss.Enqueued, ss.Sent, ss.Dropped)
				}
				// Cache-served retransmissions (the NACK churn above can hit
				// the retx cache) are extra enqueues on the requesting queue.
				if ss.Sent != int64(routed)+ss.Retx-ss.Dropped {
					t.Fatalf("sub %s delivered %d of %d routed + %d retx (dropped %d)",
						ss.Addr, ss.Sent, routed, ss.Retx, ss.Dropped)
				}
			}
			if len(st.Shards) != shards {
				t.Fatalf("shard stats: %d entries, want %d", len(st.Shards), shards)
			}
			gotSubs := 0
			for _, sh := range st.Shards {
				gotSubs += sh.Subscribers
			}
			if gotSubs != nSubs {
				t.Fatalf("shard partitions hold %d subscribers total, want %d", gotSubs, nSubs)
			}
			r.Close()

			// Every pooled buffer is back: fan-out refs, queue backlogs, and
			// in-flight writer batches all released exactly once.
			for i := 0; i < r.Shards(); i++ {
				if live := r.ShardPool(i).Live(); live != 0 {
					t.Fatalf("shard %d pool leaks %d buffers after Close", i, live)
				}
			}

			// All ingest and writer goroutines must exit.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > baseline+2 {
				if time.Now().After(deadline) {
					t.Fatalf("goroutine leak after Close: %d, baseline %d", runtime.NumGoroutine(), baseline)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestUnsubscribeMidFrameReleasesBuffers: a subscriber removed while a
// writer worker is parked mid-frame inside WriteTo (holding a popped batch
// of refcounted buffers) must have its ring backlog released, and the
// worker's in-flight batch released after the write returns — pool
// get == put across every shard at shutdown, no leaked PacketBufs.
func TestUnsubscribeMidFrameReleasesBuffers(t *testing.T) {
	leaving := udp(99)
	w := &stallWriter{rec: newRecWriter(), stalled: leaving.String(), release: make(chan struct{})}
	cfg := testConfig()
	cfg.queueDepth = 64
	cfg.Shards = 4
	r := NewRouter(w, senderAddr(), cfg)

	healthy := make([]*net.UDPAddr, 7)
	for i := range healthy {
		healthy[i] = udp(i + 1)
		r.Subscribe(healthy[i])
	}
	r.Subscribe(leaving)

	// One 16-fragment frame: the leaving subscriber's worker parks on the
	// first fragment with the rest of its batch popped, and more fragments
	// still queued in the ring behind it.
	const frags = 16
	pool := r.Pool()
	for g := uint16(0); g < frags; g++ {
		r.RouteMedia(pool.Load(mediaWire(1, 7, g, frags, true, []byte{byte(g)})))
	}
	deadline := time.Now().Add(2 * time.Second)
	for w.blocked.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("writer never entered the stalled WriteTo")
		}
		time.Sleep(time.Millisecond)
	}

	// Remove the subscriber mid-frame: Close drains and releases the ring
	// backlog; the parked worker still owns its popped batch.
	if !r.Unsubscribe(leaving) {
		t.Fatal("Unsubscribe(leaving) = false, want true")
	}
	close(w.release) // the parked write completes; worker releases its batch

	if !r.WaitIdle(2 * time.Second) {
		t.Fatal("router did not drain")
	}
	for i, a := range healthy {
		if n := w.rec.count(a); n != frags {
			t.Fatalf("healthy sub %d delivered %d/%d fragments", i, n, frags)
		}
	}
	r.Close()
	for i := 0; i < r.Shards(); i++ {
		if live := r.ShardPool(i).Live(); live != 0 {
			t.Fatalf("shard %d pool leaks %d buffers after mid-frame unsubscribe", i, live)
		}
	}
}

// TestRouterShardedAccounting64: concurrent producers (one per shard pool,
// distinct streams, modeling SO_REUSEPORT multi-socket ingest) against 64
// subscribers on shallow queues with REMB churn. After drain, every queue
// satisfies enqueued == sent + dropped + depth (depth 0 once idle) and no
// shard leaks buffers; run under -race.
func TestRouterShardedAccounting64(t *testing.T) {
	cfg := testConfig()
	cfg.queueDepth = 32 // shallow: force the drop policy to engage
	cfg.Shards = 4
	rec := newRecWriter()
	r := NewRouter(rec, senderAddr(), cfg)

	const nSubs = 64
	for i := 0; i < nSubs; i++ {
		r.Subscribe(udp(i + 1))
	}

	const producers, frames, frags = 4, 120, 8
	var wg sync.WaitGroup
	wg.Add(producers)
	for p := 0; p < producers; p++ {
		go func(p int) {
			defer wg.Done()
			pool := r.ShardPool(p)
			stream := uint8(p + 1)
			for f := uint32(0); f < frames; f++ {
				for g := uint16(0); g < frags; g++ {
					r.RouteMedia(pool.Load(mediaWire(stream, f, g, frags, f%30 == 0, []byte{byte(p)})))
				}
				if f%10 == uint32(p) { // REMB churn swings adaptive depth
					r.RouteFeedback(transport.AppendREMB(nil, float64(5e5*(1+f%8))), udp(1+int(f)%nSubs))
				}
			}
		}(p)
	}
	wg.Wait()
	if !r.WaitIdle(5 * time.Second) {
		t.Fatal("router did not drain")
	}

	const routed = producers * frames * frags
	st := r.Stats()
	if st.MediaPackets != routed {
		t.Fatalf("media packets = %d, want %d", st.MediaPackets, routed)
	}
	var shardRouted int64
	for _, sh := range st.Shards {
		shardRouted += sh.Routed
	}
	if shardRouted != routed*int64(len(st.Shards)) {
		t.Fatalf("shards routed %d packet descriptors, want %d (every packet visits every shard)",
			shardRouted, routed*int64(len(st.Shards)))
	}
	for _, ss := range st.Subs {
		if ss.Depth != 0 {
			t.Fatalf("sub %s depth = %d after WaitIdle", ss.Addr, ss.Depth)
		}
		if ss.Enqueued != ss.Sent+ss.Dropped {
			t.Fatalf("sub %s accounting: enqueued %d != sent %d + dropped %d",
				ss.Addr, ss.Enqueued, ss.Sent, ss.Dropped)
		}
		if ss.Sent+ss.Dropped != routed {
			t.Fatalf("sub %s saw %d of %d routed packets", ss.Addr, ss.Sent+ss.Dropped, routed)
		}
	}
	r.Close()
	for i := 0; i < r.Shards(); i++ {
		if live := r.ShardPool(i).Live(); live != 0 {
			t.Fatalf("shard %d pool leaks %d buffers", i, live)
		}
	}
}

// TestRouterBatchWriterPath: a conn implementing BatchWriter receives ring
// drains as WriteBatch calls (sendmmsg-shaped), with identical delivery.
func TestRouterBatchWriterPath(t *testing.T) {
	bw := newBatchRecWriter()
	cfg := testConfig()
	cfg.Shards = 2
	r := NewRouter(bw, senderAddr(), cfg)
	defer r.Close()

	subs := []*net.UDPAddr{udp(1), udp(2), udp(3)}
	for _, a := range subs {
		r.Subscribe(a)
	}
	const frames, frags = 20, 8
	pool := r.Pool()
	for f := uint32(0); f < frames; f++ {
		for g := uint16(0); g < frags; g++ {
			r.RouteMedia(pool.Load(mediaWire(1, f, g, frags, false, []byte{byte(f)})))
		}
	}
	if !r.WaitIdle(2 * time.Second) {
		t.Fatal("router did not drain")
	}
	for i, a := range subs {
		got := bw.payloads(a)
		if len(got) != frames*frags {
			t.Fatalf("sub %d received %d packets via batch path, want %d", i, len(got), frames*frags)
		}
		for j, b := range got {
			f, g := uint32(j/frags), uint16(j%frags)
			if binary.BigEndian.Uint32(b[2:6]) != f || binary.BigEndian.Uint16(b[6:8]) != g {
				t.Fatalf("sub %d batch delivery %d out of order", i, j)
			}
		}
	}
	calls, pkts := bw.batches()
	if calls == 0 || pkts != frames*frags*len(subs) {
		t.Fatalf("batch path: %d calls / %d packets, want all %d packets batched",
			calls, pkts, frames*frags*len(subs))
	}
}

// TestREMBAdaptsQueueDepth: a subscriber's REMB flows through RouteFeedback
// into its queue's adaptive limit (SubStats.Limit tracks the BDP estimate).
func TestREMBAdaptsQueueDepth(t *testing.T) {
	rec := newRecWriter()
	r := NewRouter(rec, senderAddr(), testConfig())
	defer r.Close()

	sub := udp(1)
	r.Subscribe(sub)

	limitOf := func() int64 {
		for _, ss := range r.Stats().Subs {
			if ss.Addr == sub.String() {
				return ss.Limit
			}
		}
		t.Fatal("subscriber missing from stats")
		return 0
	}
	if got := limitOf(); got != 1024 {
		t.Fatalf("initial limit = %d, want full depth 1024", got)
	}
	// Starve the estimate: at 1 Mbps over the 250 ms depth window and
	// MTU-sized packets (the initial size EMA) the BDP is ~26 packets, so
	// the limit drops to its minQueueDepth floor.
	r.RouteFeedback(transport.AppendREMB(nil, 1e6), sub)
	lo := limitOf()
	if lo >= 1024 || lo < 16 {
		t.Fatalf("limit after 1 Mbps REMB = %d, want shrunk within [16, 1024)", lo)
	}
	// Bandwidth recovers: the window re-opens.
	r.RouteFeedback(transport.AppendREMB(nil, 100e6), sub)
	if hi := limitOf(); hi <= lo {
		t.Fatalf("limit after recovery = %d, want > %d", hi, lo)
	}
}
