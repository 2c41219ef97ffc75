package relaycore

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"livo/internal/transport"
)

func testRetxCache(capacity int, age time.Duration) *retxCache {
	return newRetxCache(capacity, age.Nanoseconds())
}

// TestRetxCacheRefcounts walks the cache through insert, hit, size and age
// eviction, duplicate overwrite, and close, asserting the pool's Live()
// leak invariant at every step.
func TestRetxCacheRefcounts(t *testing.T) {
	pool := NewBufPool(0)
	c := testRetxCache(4, time.Second)

	key := func(i int) nackKey { return nackKey{seq: uint32(i), frag: 0, stream: 1} }
	for i := 0; i < 4; i++ {
		buf := pool.Load([]byte{byte(i)})
		c.Insert(key(i), buf, int64(i))
		buf.Release() // cache holds the only remaining reference
	}
	if live := pool.Live(); live != 4 {
		t.Fatalf("Live = %d after 4 cached inserts, want 4", live)
	}

	// Hit: the returned buffer carries a caller-owned reference.
	got := c.Lookup(key(2), 100)
	if got == nil || !bytes.Equal(got.Bytes(), []byte{2}) {
		t.Fatalf("Lookup(2) = %v, want payload [2]", got)
	}
	got.Release()
	if live := pool.Live(); live != 4 {
		t.Fatalf("Live = %d after hit+release, want 4", live)
	}

	// Size eviction: a 5th insert evicts the oldest (key 0).
	buf := pool.Load([]byte{4})
	c.Insert(key(4), buf, 100)
	buf.Release()
	if live := pool.Live(); live != 4 {
		t.Fatalf("Live = %d after size eviction, want 4", live)
	}
	if c.Lookup(key(0), 100) != nil {
		t.Fatal("evicted key 0 still served")
	}
	if _, ev := c.retxStats(); ev != 1 {
		t.Fatalf("evicted = %d, want 1", ev)
	}

	// Duplicate insert overwrites in place: occupancy and Live unchanged,
	// the newer payload wins.
	dup := pool.Load([]byte{42})
	c.Insert(key(3), dup, 200)
	dup.Release()
	if live := pool.Live(); live != 4 {
		t.Fatalf("Live = %d after duplicate insert, want 4", live)
	}
	if got := c.Lookup(key(3), 200); got == nil || !bytes.Equal(got.Bytes(), []byte{42}) {
		t.Fatalf("duplicate overwrite: Lookup(3) = %v, want [42]", got)
	} else {
		got.Release()
	}
	if size, _ := c.retxStats(); size != 4 {
		t.Fatalf("size = %d after duplicate insert, want 4", size)
	}

	// Age: entries expire for lookups, and a later insert sweeps them.
	old := time.Second.Nanoseconds()
	if c.Lookup(key(1), 1+old) != nil {
		t.Fatal("expired entry still served")
	}
	fresh := pool.Load([]byte{9})
	c.Insert(nackKey{seq: 9}, fresh, 300+old)
	fresh.Release()
	if size, _ := c.retxStats(); size != 1 {
		t.Fatalf("size = %d after age sweep, want 1 (only the fresh entry)", size)
	}

	c.close()
	if live := pool.Live(); live != 0 {
		t.Fatalf("Live = %d after close, want 0", live)
	}
	if c.Lookup(nackKey{seq: 9}, 300+old) != nil {
		t.Fatal("closed cache served a lookup")
	}
	post := pool.Load([]byte{1})
	c.Insert(nackKey{seq: 10}, post, 400+old)
	post.Release()
	if live := pool.Live(); live != 0 {
		t.Fatalf("Live = %d after insert-into-closed, want 0", live)
	}
}

// TestRetxKeyOf checks the cache key Router.classify derives from the one
// header peek, and what it refuses to cache.
func TestRetxKeyOf(t *testing.T) {
	r := NewRouter(newRecWriter(), senderAddr(), testConfig())
	defer r.Close()
	wire := mediaWireRung(2, 7, 3, 8, true, 1, []byte("x"))
	fid, k, ok, first := r.classify(wire)
	if !ok || k != (nackKey{seq: 7, frag: 3, stream: 2, rung: 1}) {
		t.Fatalf("classify(media) key = %+v, %v", k, ok)
	}
	if fid != (frameID{media: true, stream: 2, seq: 7, rung: 1, key: true}) || first {
		t.Fatalf("classify(media) fid = %+v first=%v", fid, first)
	}
	if _, _, _, first := r.classify(mediaWire(2, 7, 0, 8, false, nil)); !first {
		t.Fatal("fragment 0 not reported first")
	}
	// Parity packets share the fragment index space with data fragments:
	// caching them would answer a data NACK with a parity payload.
	parity := transport.Packet{
		Stream: 2, FrameSeq: 7, FragIndex: 0, FragCount: 8, Parity: true, Payload: []byte("p"),
	}
	fid, _, ok, first = r.classify(append([]byte{transport.MediaMagic}, parity.Marshal()...))
	if ok || first || !fid.media {
		t.Fatalf("parity packet: cacheable=%v first=%v media=%v, want false/false/true", ok, first, fid.media)
	}
	if fid, _, ok, _ := r.classify([]byte{transport.FBNACK, 1, 2}); ok || fid.media || fid.ctl == 0 {
		t.Fatalf("feedback packet: cacheable=%v fid=%+v, want its own control id", ok, fid)
	}
}

// TestNACKServedFromCache: a NACK for a routed fragment is answered from
// the relay cache — retransmitted to the requester only, with the sender
// seeing nothing — while a miss escalates through the coalescer.
func TestNACKServedFromCache(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rec := newRecWriter()
			cfg := testConfig()
			cfg.Shards = shards
			r := NewRouter(rec, senderAddr(), cfg)
			defer r.Close()

			sub1, sub2 := udp(1), udp(2)
			r.Subscribe(sub1)
			r.Subscribe(sub2)

			const frags = 4
			pool := r.Pool()
			for g := uint16(0); g < frags; g++ {
				r.RouteMedia(pool.Load(mediaWire(1, 5, g, frags, false, []byte{byte(g)})))
			}
			if !r.WaitIdle(2 * time.Second) {
				t.Fatal("router did not drain")
			}
			base1, base2 := rec.count(sub1), rec.count(sub2)

			r.RouteFeedback(transport.MarshalNACK(1, 5, 2), sub2)
			if !r.WaitIdle(2 * time.Second) {
				t.Fatal("router did not drain the retransmission")
			}
			if got := rec.count(sub2); got != base2+1 {
				t.Fatalf("requester received %d packets, want %d", got, base2+1)
			}
			ps := rec.payloads(sub2)
			if want := mediaWire(1, 5, 2, frags, false, []byte{2}); !bytes.Equal(ps[len(ps)-1], want) {
				t.Fatalf("retransmission mismatch: got %x", ps[len(ps)-1])
			}
			if got := rec.count(sub1); got != base1 {
				t.Fatalf("non-requesting subscriber received %d extra packets", got-base1)
			}
			if got := rec.count(senderAddr()); got != 0 {
				t.Fatalf("sender observed %d packets for a cache hit, want 0", got)
			}
			st := r.Stats()
			if st.RetxHits != 1 || st.RetxMisses != 0 {
				t.Fatalf("retx hits/misses = %d/%d, want 1/0", st.RetxHits, st.RetxMisses)
			}
			for _, ss := range st.Subs {
				want := int64(0)
				if ss.Addr == sub2.String() {
					want = 1
				}
				if ss.Retx != want {
					t.Fatalf("sub %s Retx = %d, want %d", ss.Addr, ss.Retx, want)
				}
			}

			// Miss: an uncached fragment escalates to the sender.
			r.RouteFeedback(transport.MarshalNACK(1, 99, 0), sub2)
			if got := rec.count(senderAddr()); got != 1 {
				t.Fatalf("sender observed %d packets for a cache miss, want 1", got)
			}
			st = r.Stats()
			if st.RetxMisses != 1 || st.NACKForwarded != 1 {
				t.Fatalf("misses/forwarded = %d/%d, want 1/1", st.RetxMisses, st.NACKForwarded)
			}
			if st.RetxCached == 0 {
				t.Fatal("RetxCached = 0, want > 0")
			}
		})
	}
}

// TestNACKCacheExpiry: cached packets past the age bound no longer serve
// NACKs — the receiver has long skipped the frame.
func TestNACKCacheExpiry(t *testing.T) {
	clk := &fakeClock{}
	rec := newRecWriter()
	cfg := testConfig()
	cfg.Shards = 1
	cfg.now = clk.Now
	r := NewRouter(rec, senderAddr(), cfg)
	defer r.Close()

	sub := udp(1)
	r.Subscribe(sub)
	r.RouteMedia(r.Pool().Load(mediaWire(1, 1, 0, 1, false, []byte("a"))))
	if !r.WaitIdle(2 * time.Second) {
		t.Fatal("router did not drain")
	}
	clk.Advance(2 * retxCacheAge)
	r.RouteFeedback(transport.MarshalNACK(1, 1, 0), sub)
	if got := rec.count(senderAddr()); got != 1 {
		t.Fatalf("expired entry should escalate to the sender, got %d sender packets", got)
	}
	if st := r.Stats(); st.RetxHits != 0 || st.RetxMisses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 0/1", st.RetxHits, st.RetxMisses)
	}
}

// TestRetxCacheReleasedOnClose: buffers held only by the caches are
// released at Close — the Live() invariant includes cached references.
func TestRetxCacheReleasedOnClose(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 4
	r := NewRouter(newRecWriter(), senderAddr(), cfg)
	// No subscribers: packets are still cached by their owner shard.
	pool := r.Pool()
	for i := 0; i < 200; i++ {
		r.RouteMedia(pool.Load(mediaWire(1, uint32(i/8), uint16(i%8), 8, false, []byte{byte(i)})))
	}
	if !r.WaitIdle(2 * time.Second) {
		t.Fatal("router did not drain")
	}
	if st := r.Stats(); st.RetxCached != 200 {
		t.Fatalf("RetxCached = %d, want 200", st.RetxCached)
	}
	r.Close()
	if st := r.Stats(); st.PoolLive != 0 {
		t.Fatalf("PoolLive = %d after close, want 0", st.PoolLive)
	}
}
