// Package relaycore is the relay's data plane, factored out of the public
// Relay so it is unit-testable and benchmarkable without UDP sockets
// (BenchmarkRouterFanout drives it with a discarding writer).
//
// Design (SFU-style fan-out, sharded across cores; cf. DESIGN.md §7):
//
//   - The subscriber registry is partitioned across N shards
//     (SO_REUSEPORT-style, N defaults to GOMAXPROCS). Media packets are
//     loaded once into a pooled, refcounted PacketBuf; RouteMedia hands one
//     descriptor to each populated shard's ingest ring, and each shard's
//     ingest goroutine enqueues a reference onto its own partition's
//     bounded SubQueues — the per-packet fan-out work runs on N cores, not
//     one, and stays lock-free and 0 allocs/pkt (per-shard buffer pools).
//   - Writer workers (a small pool per shard) drain ready queues in
//     WriteBatch-sized pops — one sendmmsg-shaped call per batch instead of
//     one syscall-shaped op per packet — and steal from other shards' ready
//     lists when their home shard is empty, so one slow partition cannot
//     idle other cores. A stalled receiver parks at most one worker and
//     fills only its own ring (drop policy: whole delta frames first).
//   - Reverse-path feedback is aggregated, not mirrored: PLIs are deduped
//     to one per refresh window, NACKs for the same fragment are coalesced
//     across subscribers, and REMB forwards the running minimum (O(1)
//     amortized) — at 1000 subscribers one lost key frame becomes one
//     forwarded PLI instead of a 1000-message storm. Each subscriber's REMB
//     additionally retargets its queue's adaptive depth (BDP tracking).
package relaycore

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"livo/internal/frametrace"
	"livo/internal/telemetry"
	"livo/internal/transport"
)

// Writer is the outbound half of a net.PacketConn — all the router needs,
// so benchmarks and tests can substitute in-memory conns.
type Writer interface {
	WriteTo(p []byte, addr net.Addr) (n int, err error)
}

// BatchWriter is the sendmmsg-shaped extension of Writer: write every
// packet in ps to one destination with a single call. Conns that implement
// it (a udpio socket, the bench conn) amortize per-op cost across a writer
// batch.
type BatchWriter interface {
	Writer
	WriteBatch(ps [][]byte, addr net.Addr) (n int, err error)
}

// WriteBatch sends ps to addr through w: one call when w is a BatchWriter,
// a WriteTo per packet otherwise, stopping at the first error. It is the
// one per-packet fallback outside udpio — the router's writer workers and
// the relay's socket group both send through it.
func WriteBatch(w Writer, ps [][]byte, addr net.Addr) (n int, err error) {
	if bw, ok := w.(BatchWriter); ok {
		return bw.WriteBatch(ps, addr)
	}
	for _, p := range ps {
		if _, err := w.WriteTo(p, addr); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Config parameterizes a Router. The zero value picks production defaults;
// every other size and window of the data plane is a constant beside the
// code that reads it.
type Config struct {
	// Shards is the number of data-plane shards — subscriber-registry
	// partitions with their own ingest goroutine, buffer pool, and writer
	// workers (default GOMAXPROCS).
	Shards int
	// Telemetry receives the livo_relay_* series (default
	// telemetry.Default).
	Telemetry *telemetry.Registry
	// Trace, when non-nil, receives a frame-lifecycle stamp at each relay
	// hop — relay_ingest, shard_route, and per-subscriber sub_enqueue /
	// sub_drain — for the first fragment of every media frame. Nil (the
	// default) disables tracing with a single branch per packet; enabled,
	// a stamp is a handful of atomic stores and the hot path stays
	// allocation-free.
	Trace *frametrace.Ledger
	// Events, when non-nil, receives structured data-plane events: frame
	// drops with reason, PLI forwards, retransmission-cache hits/misses,
	// REMB minimum changes, and liveness evictions.
	Events *frametrace.EventRing

	// queueDepth overrides defaultQueueDepth and now the wall clock; only
	// this package's tests set them.
	queueDepth int
	now        func() time.Time
}

const (
	// writersPerShard sizes each shard's writer-worker pool. Workers steal
	// across shards, so the pool is a per-core drain budget, not a
	// per-subscriber one.
	writersPerShard = 4
	// rembInterval rate-limits forwarding of an unchanged REMB aggregate to
	// the receivers' own feedback cadence.
	rembInterval = 33 * time.Millisecond
	// silenceWindow is how long a subscriber that has spoken may go without
	// any reverse-path packet before the liveness sweep evicts it: about 60
	// feedback intervals, and above the 10–700 ms host stalls a shared host
	// shows (benchmark/README.md). The sweep runs every silenceWindow/4.
	silenceWindow = 2 * time.Second
)

func (c *Config) fill() {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.queueDepth <= 0 {
		c.queueDepth = defaultQueueDepth
	}
	if c.Telemetry == nil {
		c.Telemetry = telemetry.Default
	}
}

// Subscriber is one receiver: its address, canonical key (cached at
// subscribe time — no String() comparisons on the packet path), queue, and
// owning shard.
type Subscriber struct {
	addr  net.Addr
	key   Key
	id    int32 // stable per-router id; trace stamps and events carry it
	q     *SubQueue
	shard int

	// lastActive is the ns timestamp of the newest reverse-path packet from
	// this subscriber (stamped at subscribe and on every RouteFeedback), and
	// spoke is set by the first one. Only a subscriber that has spoken has a
	// reverse path whose silence means anything, so the liveness sweep
	// judges only those.
	lastActive atomic.Int64
	spoke      atomic.Bool
}

// Addr returns the subscriber's address.
func (s *Subscriber) Addr() net.Addr { return s.addr }

// subID is the event-friendly id of a possibly-nil subscriber.
func subID(s *Subscriber) int32 {
	if s == nil {
		return frametrace.NoSub
	}
	return s.id
}

// subSnapshot is the immutable subscriber set; the hot path reads it with
// one atomic load. byKey serves the feedback path's per-subscriber lookups
// (pose gating, REMB depth retargeting) without a scan.
type subSnapshot struct {
	subs    []*Subscriber
	byKey   map[Key]*Subscriber
	primary *Subscriber
}

// stealPoll bounds how long an idle writer worker waits before re-scanning
// other shards' ready lists (its own shard wakes it immediately via the
// shard notify channel; stealing is the backstop).
const stealPoll = 500 * time.Microsecond

// Router fans one sender's media out to subscribers and aggregates their
// feedback. Every method is safe for concurrent use: RouteMedia and
// RouteFeedback may both be called from any number of ingest loops (one
// per reuseport socket) at once, alongside membership changes and Stats.
// Per-stream packet order is the caller's: packets of one stream keep the
// order they were routed in only when one goroutine routes that stream.
//
// Synchronisation: the media path is lock-free up to each shard's ingest
// ring; fbMu alone guards the feedback aggregation state (REMB extrema,
// NACK coalescer, PLI gate, rung rates); each subscriber's ladder position
// sits with its ring behind its queue's lock (taken after fbMu, never
// before). No lock is held across a write to the conn.
type Router struct {
	cfg       Config
	out       Writer
	sender    net.Addr
	senderKey Key // KeyOf(sender), computed once for FromSender

	shards []*shard
	pools  []*BufPool

	snap      atomic.Pointer[subSnapshot]
	mu        sync.Mutex // membership changes (copy-on-write)
	ingestWg  sync.WaitGroup
	writerWg  sync.WaitGroup
	liveWg    sync.WaitGroup
	closedCh  chan struct{}
	closeOnce sync.Once

	// Feedback aggregation state, all under fbMu: concurrent RouteFeedback
	// callers, Unsubscribe's REMB eviction and the key-frame PLI re-arm.
	// rates folds rungBytes — wire bytes per rung, one atomic add per
	// media packet — into per-rung bitrates at REMB cadence.
	fbMu        sync.Mutex
	remb        *rembMin
	nacks       *nackCoalescer
	pli         pliGate
	rates       rungRates
	lastREMBFwd int64
	lastREMBMin float64
	rembSent    bool

	ctlSeq    atomic.Uint64
	subSeq    atomic.Int32 // next subscriber id
	rungBytes [transport.MaxRungs]atomic.Int64

	// departedDrops and departedSwitches (under mu) are what departed
	// subscribers' queues counted (departLocked).
	departedDrops, departedSwitches int64

	mediaPkts     atomic.Int64
	fanoutPkts    atomic.Int64
	pliFwd        atomic.Int64
	pliSuppressed atomic.Int64
	nackFwd       atomic.Int64
	nackCoalesced atomic.Int64
	rembFwd       atomic.Int64
	poseFwd       atomic.Int64
	retxHits      atomic.Int64
	retxMisses    atomic.Int64
	liveEvicted   atomic.Int64

	telBatch   *telemetry.Histogram
	unregister func() // removes the router's series
}

// pliWire is the one-byte PLI the router originates when a subscriber is
// reassigned to a cheaper rung mid-GOP: the switch commits at the next key
// frame, so the downswitch rides the existing PLI path to get one quickly.
var pliWire = []byte{transport.FBPLI}

// NewRouter builds a router writing through out toward the given sender.
// The shards' ingest and writer goroutines start immediately and stop at
// Close.
func NewRouter(out Writer, sender net.Addr, cfg Config) *Router {
	cfg.fill()
	r := &Router{
		cfg:       cfg,
		out:       out,
		sender:    sender,
		senderKey: KeyOf(sender),
		remb:      newREMBMin(),
		nacks:     newNACKCoalescer(nackWindow.Nanoseconds()),
		closedCh:  make(chan struct{}),
	}
	r.pli.window = pliWindow.Nanoseconds()
	r.snap.Store(&subSnapshot{byKey: map[Key]*Subscriber{}})
	r.telBatch = cfg.Telemetry.Histogram("livo_relay_shard_batch_size", []float64{1, 2, 4, 8, 16, 32})

	// Each shard's cache share; floored so a many-shard router still holds
	// a useful window per shard.
	retxPerShard := retxCachePackets / cfg.Shards
	if retxPerShard < 64 {
		retxPerShard = 64
	}
	r.shards = make([]*shard, cfg.Shards)
	r.pools = make([]*BufPool, cfg.Shards)
	for i := range r.shards {
		r.pools[i] = NewBufPool(DefaultBufClass)
		r.shards[i] = newShard(i)
		r.shards[i].trace = cfg.Trace
		r.shards[i].retx = newRetxCache(retxPerShard, retxCacheAge.Nanoseconds())
		r.shards[i].now = r.now
	}
	// The livo_relay_* series read the counts above at scrape time; Close
	// removes them. livo_relay_queue_depth_max is a maximum, not a sum: it
	// reads right while one router reports to a registry, as in every
	// binary here.
	counters := map[string]func() int64{
		"livo_relay_media_packets_total":      r.mediaPkts.Load,
		"livo_relay_fanout_packets_total":     r.fanoutPkts.Load,
		"livo_relay_drops_total":              func() int64 { return r.Stats().Drops },
		"livo_relay_pli_forwarded_total":      r.pliFwd.Load,
		"livo_relay_pli_suppressed_total":     r.pliSuppressed.Load,
		"livo_relay_nack_forwarded_total":     r.nackFwd.Load,
		"livo_relay_nack_coalesced_total":     r.nackCoalesced.Load,
		"livo_relay_remb_forwarded_total":     r.rembFwd.Load,
		"livo_relay_retx_hits_total":          r.retxHits.Load,
		"livo_relay_retx_misses_total":        r.retxMisses.Load,
		"livo_relay_retx_evicted_total":       func() int64 { return r.Stats().RetxEvicted },
		"livo_relay_liveness_evictions_total": r.liveEvicted.Load,
		"livo_relay_rung_switches_total":      func() int64 { return r.Stats().RungSwitches },
	}
	gauges := map[string]func() float64{
		"livo_relay_subscribers":     func() float64 { return float64(r.Subscribers()) },
		"livo_relay_queue_depth_max": func() float64 { return float64(r.Stats().MaxDepth) },
		"livo_relay_retx_cached":     func() float64 { return float64(r.Stats().RetxCached) },
	}
	for i := 0; i < transport.MaxRungs; i++ {
		gauges[fmt.Sprintf(`livo_relay_rung_subscribers{rung="%d"}`, i)] = func() float64 { return float64(r.Stats().RungSubscribers[i]) }
	}
	for _, s := range r.shards {
		counters[fmt.Sprintf("livo_relay_shard_%d_routed_total", s.id)] = s.routed.Load
		counters[fmt.Sprintf("livo_relay_shard_%d_stolen_total", s.id)] = s.stolen.Load
	}
	r.unregister = cfg.Telemetry.Funcs(counters, gauges)
	r.ingestWg.Add(len(r.shards))
	for _, s := range r.shards {
		go s.runIngest(&r.ingestWg)
	}
	for i := range r.shards {
		r.writerWg.Add(writersPerShard)
		for w := 0; w < writersPerShard; w++ {
			go r.runWriter(i)
		}
	}
	r.liveWg.Add(1)
	go r.runLiveness()
	return r
}

// Pool returns the shard-0 packet-buffer pool (a single relay read loop
// loads inbound datagrams through it); multi-socket ingest loops should
// spread across ShardPool.
func (r *Router) Pool() *BufPool { return r.pools[0] }

// ShardPool returns shard i's buffer pool (reuseport-style ingest: each
// socket's read loop loads through its own shard's pool, so pool locks
// never contend across cores).
func (r *Router) ShardPool(i int) *BufPool { return r.pools[i%len(r.pools)] }

// Shards returns the shard count.
func (r *Router) Shards() int { return len(r.shards) }

func (r *Router) now() int64 {
	if r.cfg.now != nil {
		return r.cfg.now().UnixNano()
	}
	return time.Now().UnixNano()
}

// Subscribe adds a receiver (idempotent by canonical address key). The
// first subscriber becomes the primary viewer whose poses drive culling.
// The subscriber lands on the shard its address hashes to.
func (r *Router) Subscribe(addr net.Addr) {
	k := KeyOf(addr)
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.snap.Load()
	if _, ok := cur.byKey[k]; ok {
		return
	}
	shardIdx := int(k.hash() % uint64(len(r.shards)))
	sub := &Subscriber{
		addr:  addr,
		key:   k,
		id:    r.subSeq.Add(1) - 1,
		shard: shardIdx,
		q:     newSubQueue(addr, r.cfg.queueDepth, minQueueDepth),
	}
	sub.q.sub = sub.id
	sub.q.events = r.cfg.Events
	sub.q.trace = r.cfg.Trace
	sub.q.shard = r.shards[shardIdx]
	sub.lastActive.Store(r.now())
	next := &subSnapshot{
		subs:    make([]*Subscriber, 0, len(cur.subs)+1),
		byKey:   make(map[Key]*Subscriber, len(cur.subs)+1),
		primary: cur.primary,
	}
	next.subs = append(append(next.subs, cur.subs...), sub)
	for _, s := range next.subs {
		next.byKey[s.key] = s
	}
	if next.primary == nil {
		next.primary = sub
	}
	r.snap.Store(next)
	r.storePartitionLocked(shardIdx, next)
}

// storePartitionLocked rebuilds shard shardIdx's partition snapshot from
// the global snapshot (r.mu held).
func (r *Router) storePartitionLocked(shardIdx int, snap *subSnapshot) {
	part := make([]*Subscriber, 0, 1+len(snap.subs)/len(r.shards))
	for _, s := range snap.subs {
		if s.shard == shardIdx {
			part = append(part, s)
		}
	}
	r.shards[shardIdx].subs.Store(&part)
}

// Unsubscribe removes a receiver: it leaves its shard's partition, its
// queued buffers are released (a batch already popped by a writer finishes
// its write, then the queue idles), its REMB entry is evicted (the
// forwarded minimum may rise), and — if it was the primary viewer — the
// oldest remaining subscriber becomes primary. Reports whether the address
// was subscribed.
func (r *Router) Unsubscribe(addr net.Addr) bool {
	k := KeyOf(addr)
	r.mu.Lock()
	cur := r.snap.Load()
	removed, ok := cur.byKey[k]
	if !ok {
		r.mu.Unlock()
		return false
	}
	next := &subSnapshot{
		subs:    make([]*Subscriber, 0, len(cur.subs)-1),
		byKey:   make(map[Key]*Subscriber, len(cur.subs)-1),
		primary: cur.primary,
	}
	for _, s := range cur.subs {
		if s != removed {
			next.subs = append(next.subs, s)
			next.byKey[s.key] = s
		}
	}
	if cur.primary == removed {
		next.primary = nil
		if len(next.subs) > 0 {
			next.primary = next.subs[0]
		}
	}
	r.snap.Store(next)
	r.storePartitionLocked(removed.shard, next)
	r.departLocked(removed)
	r.mu.Unlock()

	r.fbMu.Lock()
	r.remb.Remove(k)
	r.fbMu.Unlock()
	return true
}

// departLocked closes a leaving subscriber's queue, which then counts
// nothing more, and folds its drops and rung switches in once (r.mu held).
func (r *Router) departLocked(s *Subscriber) {
	s.q.Close()
	s.q.mu.Lock()
	r.departedSwitches += s.q.rung.switches
	s.q.mu.Unlock()
	r.departedDrops += s.q.dropped.Load()
}

// Subscribers returns the current subscriber count.
func (r *Router) Subscribers() int { return len(r.snap.Load().subs) }

// Primary returns the current primary viewer's address, or nil.
func (r *Router) Primary() net.Addr {
	if p := r.snap.Load().primary; p != nil {
		return p.addr
	}
	return nil
}

// FromSender reports whether addr is the media sender (allocation-free for
// UDP addresses).
func (r *Router) FromSender(addr net.Addr) bool { return KeyOf(addr) == r.senderKey }

// classify peeks a packet's header once and derives what the data plane
// keys on: the drop policy's frame id, the retransmission-cache key
// (cacheable only for data fragments: parity shares their fragment index
// space — see transport/fec.go — so caching it could answer a data NACK
// with a parity payload), and whether this is the frame's first data
// fragment. Anything that is not media is its own droppable unit.
func (r *Router) classify(b []byte) (fid frameID, rk nackKey, cacheable, first bool) {
	h, ok := transport.PeekMedia(b)
	if !ok {
		return frameID{ctl: r.ctlSeq.Add(1)}, nackKey{}, false, false
	}
	fid = frameID{media: true, stream: h.Stream, seq: h.Seq, rung: h.Rung, key: h.Key}
	rk = nackKey{seq: h.Seq, frag: h.Frag, stream: h.Stream, rung: h.Rung}
	return fid, rk, !h.Parity, h.First()
}

// RouteMedia fans one sender packet out to every subscriber: one descriptor
// per populated shard, each shard enqueuing references onto its own
// partition's queues. It takes ownership of the caller's buffer reference
// and is safe to call concurrently from multiple ingest loops.
func (r *Router) RouteMedia(buf *PacketBuf) {
	r.mediaPkts.Add(1)
	b := buf.Bytes()
	fid, rk, cacheable, first := r.classify(b)
	if fid.media {
		// Per-rung byte accounting for the rung policy, folded into rates
		// off the hot path at REMB cadence.
		r.rungBytes[fid.rung].Add(int64(len(b)))
	}
	// One branch per packet when tracing is off; when on, each frame's
	// first fragment is stamped at ingest and the shard and queue hops
	// stamp the same fragment downstream.
	if r.cfg.Trace != nil && first {
		r.cfg.Trace.StampNow(frametrace.HopRelayIngest, fid.stream, fid.seq, frametrace.NoSub)
	}
	if fid.key {
		// A key frame is on its way to everyone: the PLI refresh cycle is
		// complete, mirror the receivers' PLITracker.OnKeyFrame.
		r.fbMu.Lock()
		r.pli.OnKeyFrame()
		r.fbMu.Unlock()
	}
	// A cacheable packet is assigned an owner shard whose ingest goroutine
	// inserts it into that shard's retransmission cache — cache bookkeeping
	// rides the existing fan-out hop instead of the producer hot path. The
	// owner gets the descriptor even when its subscriber partition is empty.
	owner := -1
	if cacheable {
		owner = retxShard(rk, len(r.shards))
	}
	snap := r.snap.Load()
	if len(snap.subs) == 0 && owner < 0 {
		buf.Release()
		return
	}
	for i, s := range r.shards {
		if s.subCount() == 0 && i != owner {
			continue
		}
		buf.Retain()
		if !s.push(ingestEntry{buf: buf, fid: fid, rk: rk, cache: i == owner, first: first}) {
			buf.Release()
		}
	}
	r.fanoutPkts.Add(int64(len(snap.subs)))
	buf.Release()
}

// runWriter is one writer worker homed on shard home: it drains ready
// queues in WriteBatch-sized pops, preferring its own shard and stealing
// from the others when idle. A stalled subscriber parks exactly one worker
// (the queue is owned while draining); the rest keep the healthy queues
// flowing.
func (r *Router) runWriter(home int) {
	defer r.writerWg.Done()
	var bufs [writerBatch]*PacketBuf
	var pkts [writerBatch][]byte
	hs := r.shards[home]
	timer := time.NewTimer(stealPoll)
	defer timer.Stop()
	for {
		q := hs.popReady()
		if q == nil {
			for i := 1; i < len(r.shards); i++ {
				if q = r.shards[(home+i)%len(r.shards)].popReady(); q != nil {
					hs.stolen.Add(1)
					break
				}
			}
		}
		if q == nil {
			select {
			case <-r.closedCh:
				return
			default:
			}
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(stealPoll)
			select {
			case <-hs.notify:
			case <-timer.C:
			case <-r.closedCh:
				return
			}
			continue
		}
		n := q.popBatch(bufs[:], pkts[:])
		if n > 0 {
			if tr := r.cfg.Trace; tr != nil {
				// Stamp queue exit before the write so queue_wait measures
				// ring residency alone, not the batch syscall.
				for i := 0; i < n; i++ {
					if stream, seq, ok := transport.FirstFragment(pkts[i]); ok {
						tr.StampNow(frametrace.HopSubDrain, stream, seq, q.sub)
					}
				}
			}
			_, _ = WriteBatch(r.out, pkts[:n], q.addr)
			for i := 0; i < n; i++ {
				bufs[i].Release()
				bufs[i] = nil
				pkts[i] = nil
			}
			q.sent.Add(int64(n))
			r.telBatch.Observe(float64(n))
		}
		q.finishDrain()
	}
}

// RouteFeedback aggregates one reverse-path message from a subscriber. b is
// the caller's to scribble on: a probe is turned into its echo in place.
// Safe for concurrent callers (one per ingest loop): shared aggregation
// state is touched only under fbMu, and every outgoing message is either b
// itself or built on this call's stack.
func (r *Router) RouteFeedback(b []byte, from net.Addr) {
	if len(b) == 0 {
		return
	}
	k := KeyOf(from)
	snap := r.snap.Load()
	sub := snap.byKey[k]
	if sub != nil {
		// Any reverse-path packet proves the subscriber alive.
		sub.lastActive.Store(r.now())
		sub.spoke.Store(true)
	}
	switch b[0] {
	case transport.FBREMB:
		bps, err := transport.UnmarshalREMB(b)
		if err != nil {
			return
		}
		// The subscriber's own queue tracks its bandwidth-delay product:
		// ring depth follows the REMB estimate instead of a fixed 1024.
		if sub != nil {
			sub.q.UpdateBandwidth(bps)
		}
		now := r.now()
		var totals [transport.MaxRungs]int64
		for i := range totals {
			totals[i] = r.rungBytes[i].Load()
		}
		r.fbMu.Lock()
		target := r.remb.Update(k, bps)
		r.rates.observe(totals, now)
		if r.rates.rungs() > 1 {
			// With a ladder the sender budget follows the *fastest* class:
			// rung 0 must stay worth watching for it, while slower classes
			// ride the cheaper rungs instead of dragging everyone down.
			target = r.remb.Max()
		}
		downswitch := sub != nil && sub.q.retarget(&r.rates, bps)
		fwd := !r.rembSent || target != r.lastREMBMin || now-r.lastREMBFwd >= rembInterval.Nanoseconds()
		if fwd {
			r.rembSent = true
			r.lastREMBMin = target
			r.lastREMBFwd = now
		}
		r.fbMu.Unlock()
		if fwd {
			r.rembFwd.Add(1)
			r.cfg.Events.Add(frametrace.EvREMB, 0, 0, subID(sub), int64(target))
			var scratch [9]byte
			_, _ = r.out.WriteTo(transport.AppendREMB(scratch[:0], target), r.sender)
		}
		if downswitch {
			// The subscriber can no longer afford its rung: the switch only
			// commits at a key frame, so ride the PLI path to pull one
			// forward instead of waiting out the GOP.
			r.fbMu.Lock()
			pliFwd := r.pli.ShouldForward(now)
			r.fbMu.Unlock()
			if pliFwd {
				r.pliFwd.Add(1)
				r.cfg.Events.Add(frametrace.EvPLI, 0, 0, subID(sub), 0)
				_, _ = r.out.WriteTo(pliWire, r.sender)
			} else {
				r.pliSuppressed.Add(1)
			}
		}
	case transport.FBPose:
		// Only the primary viewer's poses reach the sender: culling is
		// per-viewer state, so the sender culls for the primary and the
		// other subscribers get the same (conservatively larger) view.
		if sub != nil && sub == snap.primary {
			r.poseFwd.Add(1)
			_, _ = r.out.WriteTo(b, r.sender)
		}
	case transport.FBNACK:
		stream, seq, frag, err := transport.UnmarshalNACK(b)
		if err != nil {
			return
		}
		// The wire NACK has no rung field; the requester's loss is in
		// whichever rung it was served that sequence on.
		rung, served := uint8(0), true
		if sub != nil {
			rung, served = sub.q.servedOn(seq)
		}
		nk := nackKey{seq: seq, frag: frag, stream: stream, rung: rung}
		// Self-healing path: a cache hit retransmits to the requester only
		// and the sender never sees the loss. Misses (expired, evicted,
		// never routed here, or a sequence the requester was never served)
		// escalate through the coalescer.
		if served && r.serveRetx(nk, sub, from) {
			r.retxHits.Add(1)
			r.cfg.Events.Add(frametrace.EvRetxHit, stream, seq, subID(sub), int64(frag))
			return
		}
		r.retxMisses.Add(1)
		r.cfg.Events.Add(frametrace.EvRetxMiss, stream, seq, subID(sub), int64(frag))
		now := r.now()
		r.fbMu.Lock()
		fwd := r.nacks.ShouldForward(nk, now)
		r.fbMu.Unlock()
		if !fwd {
			r.nackCoalesced.Add(1)
			return
		}
		r.nackFwd.Add(1)
		_, _ = r.out.WriteTo(b, r.sender)
	case transport.FBPLI:
		now := r.now()
		r.fbMu.Lock()
		fwd := r.pli.ShouldForward(now)
		r.fbMu.Unlock()
		if !fwd {
			r.pliSuppressed.Add(1)
			return
		}
		r.pliFwd.Add(1)
		r.cfg.Events.Add(frametrace.EvPLI, 0, 0, subID(sub), 0)
		_, _ = r.out.WriteTo(b, r.sender)
	case transport.FBPing:
		// An RTT probe is answered here, to the subscriber that sent it: the
		// round trip it needs is the one its NACKs take to the retransmission
		// cache. Forwarded, the sender's echo would come back as sender
		// traffic and fan out to every subscriber.
		if sub != nil {
			b[0] = transport.FBPong
			_, _ = r.out.WriteTo(b, from)
		}
	case transport.FBPong:
		// The relay sends no probes, so there is nothing for a pong to answer.
	default:
		// Unknown types: forward to the sender.
		_, _ = r.out.WriteTo(b, r.sender)
	}
}

// serveRetx answers one NACK from the retransmission cache, reporting
// whether it was served locally. A hit is retransmitted to the requester
// only — through its queue, so the drop policy and pacing still apply, or
// a direct write for a requester that is not a subscriber.
func (r *Router) serveRetx(k nackKey, sub *Subscriber, from net.Addr) bool {
	buf := r.shards[retxShard(k, len(r.shards))].retx.Lookup(k, r.now())
	if buf == nil {
		return false
	}
	if sub == nil {
		_, _ = r.out.WriteTo(buf.Bytes(), from)
		buf.Release()
		return true
	}
	// Classify before Enqueue: on success the queue owns our reference
	// and a writer may release it at any moment.
	fid, _, _, _ := r.classify(buf.Bytes())
	if sub.q.Enqueue(buf, fid) {
		sub.q.retx.Add(1)
	} else {
		buf.Release()
	}
	return true
}

// EvictStale removes every subscriber that has spoken and then stayed
// silent for at least silenceWindow, returning how many were evicted. A
// subscriber that never sent feedback has no reverse path to judge and is
// never evicted. Each eviction is a full Unsubscribe — queue teardown, REMB
// entry release (a vanished receiver's stale estimate no longer pins the
// forwarded minimum), primary repoint. The background sweep calls this
// every silenceWindow/4; tests with a fake clock may call it directly.
func (r *Router) EvictStale() int {
	now := r.now()
	cutoff := now - silenceWindow.Nanoseconds()
	var stale []*Subscriber
	for _, s := range r.snap.Load().subs {
		if s.spoke.Load() && s.lastActive.Load() < cutoff {
			stale = append(stale, s)
		}
	}
	n := 0
	for _, s := range stale {
		if r.Unsubscribe(s.addr) {
			n++
			r.liveEvicted.Add(1)
			r.cfg.Events.Add(frametrace.EvLivenessEvict, 0, 0, s.id, now-s.lastActive.Load())
		}
	}
	return n
}

// runLiveness is the background liveness sweep.
func (r *Router) runLiveness() {
	defer r.liveWg.Done()
	tick := time.NewTicker(silenceWindow / 4)
	defer tick.Stop()
	for {
		select {
		case <-r.closedCh:
			return
		case <-tick.C:
			r.EvictStale()
		}
	}
}

// Close stops the shard ingest goroutines and writer workers, releases
// queued buffers and removes the router's series from its registry (their
// counts stay in the registry's totals). Media routed after Close is
// dropped at the (closed) shards and queues.
func (r *Router) Close() { r.closeOnce.Do(r.doClose) }

func (r *Router) doClose() {
	// Every subscriber departs as in Unsubscribe.
	r.mu.Lock()
	snap := r.snap.Load()
	r.snap.Store(&subSnapshot{byKey: map[Key]*Subscriber{}})
	for i := range r.shards {
		empty := []*Subscriber{}
		r.shards[i].subs.Store(&empty)
	}
	for _, s := range snap.subs {
		r.departLocked(s)
	}
	r.mu.Unlock()

	// Stop ingest (no new cache inserts), then release the retransmission
	// caches, then let the writers and the liveness sweep run dry and exit.
	for _, s := range r.shards {
		s.close()
	}
	r.ingestWg.Wait()
	for _, s := range r.shards {
		s.retx.close()
	}
	close(r.closedCh)
	r.writerWg.Wait()
	r.liveWg.Wait()
	r.unregister()
}

// WaitIdle blocks until every shard ring and subscriber queue is drained
// (or the timeout elapses), returning whether it drained. Benchmarks use it
// to charge queued-mode wall time with delivery, not just enqueue.
func (r *Router) WaitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		idle := true
		for _, s := range r.shards {
			if !s.idle() {
				idle = false
				break
			}
		}
		if idle {
			for _, s := range r.snap.Load().subs {
				if !s.q.Idle() {
					idle = false
					break
				}
			}
		}
		if idle {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// ShardStats is a point-in-time snapshot of one shard.
type ShardStats struct {
	ID          int
	Subscribers int
	Routed      int64 // packets fanned out by this shard's ingest worker
	Stolen      int64 // ready queues this shard's workers stole from peers
}

// Stats is a point-in-time snapshot of the router.
type Stats struct {
	Subscribers   int
	MediaPackets  int64
	FanoutPackets int64
	// Drops and RungSwitches include what departed subscribers counted.
	Drops         int64
	MaxDepth      int64
	PLIForwarded  int64
	PLISuppressed int64
	NACKForwarded int64
	NACKCoalesced int64
	REMBForwarded int64
	PoseForwarded int64

	// Self-healing layer: NACKs served from the relay's retransmission
	// cache vs escalated (RetxMisses feeds the coalescer path), cache
	// occupancy/lifetime eviction counts, and liveness evictions.
	RetxHits        int64
	RetxMisses      int64
	RetxCached      int64
	RetxEvicted     int64
	LivenessEvicted int64
	// RungSwitches counts committed per-subscriber rung switches;
	// RungSubscribers is how many subscribers currently sit on each rung.
	RungSwitches    int64
	RungSubscribers [transport.MaxRungs]int
	// PoolLive sums Live() over every shard pool — the leak invariant
	// (0 once every buffer reference, cached ones included, is released).
	PoolLive int64

	Subs   []SubStats
	Shards []ShardStats
}

// Stats snapshots the router, its shards, and per-subscriber queues.
func (r *Router) Stats() Stats {
	// A subscriber departing after this is in snap, not in the departed
	// totals: it counts once.
	r.mu.Lock()
	snap, drops, switches := r.snap.Load(), r.departedDrops, r.departedSwitches
	r.mu.Unlock()
	st := Stats{
		Subscribers:   len(snap.subs),
		MediaPackets:  r.mediaPkts.Load(),
		FanoutPackets: r.fanoutPkts.Load(),
		Drops:         drops,
		PLIForwarded:  r.pliFwd.Load(),
		PLISuppressed: r.pliSuppressed.Load(),
		NACKForwarded: r.nackFwd.Load(),
		NACKCoalesced: r.nackCoalesced.Load(),
		REMBForwarded: r.rembFwd.Load(),
		PoseForwarded: r.poseFwd.Load(),

		RetxHits:        r.retxHits.Load(),
		RetxMisses:      r.retxMisses.Load(),
		LivenessEvicted: r.liveEvicted.Load(),
		RungSwitches:    switches,

		Subs:   make([]SubStats, 0, len(snap.subs)),
		Shards: make([]ShardStats, 0, len(r.shards)),
	}
	for _, p := range r.pools {
		st.PoolLive += p.Live()
	}
	for _, s := range r.shards {
		size, ev := s.retx.retxStats()
		st.RetxCached += int64(size)
		st.RetxEvicted += ev
	}
	now := r.now()
	for _, s := range snap.subs {
		ss := s.q.stats()
		ss.LastActiveAgeMs = float64(now-s.lastActive.Load()) / 1e6
		if int(ss.Rung) < len(st.RungSubscribers) {
			st.RungSubscribers[ss.Rung]++
		}
		st.Drops += ss.Dropped
		st.RungSwitches += ss.RungSwitches
		if ss.Depth > st.MaxDepth {
			st.MaxDepth = ss.Depth
		}
		st.Subs = append(st.Subs, ss)
	}
	for _, s := range r.shards {
		st.Shards = append(st.Shards, ShardStats{
			ID:          s.id,
			Subscribers: s.subCount(),
			Routed:      s.routed.Load(),
			Stolen:      s.stolen.Load(),
		})
	}
	return st
}
