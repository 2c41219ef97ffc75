package relaycore

import (
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"livo/internal/frametrace"
	"livo/internal/transport"
)

// frameID groups the fragments of one media frame so the drop policy can
// discard whole frames. Non-media packets (pongs, sender pings) each get a
// unique control id: they are individually droppable. key marks key-frame
// media — the drop policy spends delta frames before touching it. rung is
// the quality-ladder rung: the same (stream, seq) encoded at two rungs is
// two distinct frames for eviction and in-flight tracking.
type frameID struct {
	ctl    uint64
	seq    uint32
	stream uint8
	rung   uint8
	media  bool
	key    bool
}

type entry struct {
	buf *PacketBuf
	fid frameID
}

// writerBatch bounds how many entries a writer worker pops per drain — the
// sendmmsg-shaped WriteBatch unit.
const writerBatch = 32

// queueState is the scheduling state of a SubQueue within its shard.
type queueState uint8

const (
	// qIdle: empty (or unscheduled); the next Enqueue pushes it ready.
	qIdle queueState = iota
	// qReady: sitting in a shard ready list awaiting a writer worker.
	qReady
	// qDraining: owned by one writer worker (at most one at a time — a
	// stalled WriteBatch parks exactly one worker per stalled subscriber).
	qDraining
)

// SubQueue is one subscriber's bounded send queue: a ring of refcounted
// packet buffers drained in batches by the router's writer workers. A
// stalled subscriber fills its own ring and triggers the drop policy; it
// never blocks the router or other subscribers.
//
// Drop policy (slow subscriber): drop-oldest at media-frame granularity,
// preferring delta frames. When the ring is over its limit the oldest whole
// *delta* frame is discarded first; key frames are spent only to admit an
// incoming key frame (an incoming delta never evicts a queued key frame —
// the key frame is what every later delta depends on). A fragment run is
// never split: eviction removes every queued fragment of the victim frame,
// and the run currently being written (whose earlier fragments already left
// the queue) is immune. If nothing is droppable the incoming packet is
// rejected instead.
//
// Adaptive depth: the effective limit tracks the subscriber's REMB-estimated
// bandwidth-delay product (UpdateBandwidth) between a configured floor and
// the allocated ring capacity, so a slow subscriber queues what it can
// actually drain inside the depth window instead of a fixed second of media.
//
// The queue also holds the subscriber's position on the quality ladder
// (rung.go) under the same lock as the ring: Offer filters each media
// packet through it on the way in, so the filter costs the fan-out path no
// synchronisation of its own and every reader sees one consistent switch.
type SubQueue struct {
	addr  net.Addr
	shard *shard // owning shard; nil when unscheduled (tests)
	sub   int32  // subscriber id for trace stamps and events (Subscribe assigns)

	// events, when non-nil, receives a frame-drop event for every frame
	// the drop policy discards or rejects (frametrace.EvFrameDrop) and a
	// rung-switch event for every switch Offer commits.
	events *frametrace.EventRing

	// trace, when non-nil, receives the sub_enqueue stamp for each frame's
	// first fragment Offer enqueues — taken under mu, so it can never
	// follow the writer's sub_drain stamp for the same fragment.
	trace *frametrace.Ledger

	mu          sync.Mutex
	rung        rungState
	ring        []entry
	mask        int
	head        int // ring index of the oldest entry
	size        int
	limit       int     // adaptive effective depth (≤ len(ring))
	minLimit    int     // adaptive floor
	avgBytes    int     // EMA of enqueued packet size
	inFlight    frameID // frame of the most recently popped entry
	hasInFlight bool
	state       queueState
	closed      bool

	enqueued atomic.Int64
	sent     atomic.Int64
	dropped  atomic.Int64
	depth    atomic.Int64
	limitA   atomic.Int64
	retx     atomic.Int64  // cache-served retransmissions enqueued here
	rembBps  atomic.Uint64 // float64 bits of the last REMB estimate (0 = none yet)
}

const (
	// defaultQueueDepth is the per-subscriber ring capacity in packets
	// (about a second of 4K media), the ceiling of the adaptive limit.
	defaultQueueDepth = 1024
	// minQueueDepth floors the adaptive limit: a few frames of headroom
	// however slow the subscriber's REMB.
	minQueueDepth = 64
	// depthWindow is the bandwidth-delay window the adaptive limit targets:
	// a queue holds about this much traffic at its subscriber's REMB rate.
	depthWindow = 250 * time.Millisecond
)

// newSubQueue allocates a ring of depth packets (rounded up to a power of
// two) whose adaptive limit never falls below minDepth.
func newSubQueue(addr net.Addr, depth, minDepth int) *SubQueue {
	cap := 1
	for cap < depth {
		cap <<= 1
	}
	if minDepth <= 0 || minDepth > cap {
		minDepth = cap
	}
	q := &SubQueue{
		addr:     addr,
		sub:      frametrace.NoSub, // Subscribe assigns the real id
		ring:     make([]entry, cap),
		mask:     cap - 1,
		limit:    cap,
		minLimit: minDepth,
		avgBytes: transport.MTU,
	}
	q.limitA.Store(int64(cap))
	return q
}

// Enqueue appends one packet, taking ownership of one reference on success.
// Over the adaptive limit it runs the drop policy first. It returns false —
// and the caller keeps its reference — when the queue is closed or the
// incoming packet itself was rejected.
func (q *SubQueue) Enqueue(buf *PacketBuf, fid frameID) bool {
	q.mu.Lock()
	return q.enqueueLocked(buf, fid, false)
}

// Offer is Enqueue behind the subscriber's rung filter (rungState.admit):
// a media packet is enqueued only when its rung is the one its frame is
// served on. Unlike Enqueue it leaves the caller's reference alone and
// retains one for the queue when it enqueues, so the fan-out loop pays no
// refcount traffic for the rung copies a subscriber is not watching.
// first marks a frame's first data fragment, the only packet that can
// commit a pending rung switch, which the queue counts and logs. A closed
// queue commits nothing, so its counts are final once Close returns.
func (q *SubQueue) Offer(buf *PacketBuf, fid frameID, first bool) {
	q.mu.Lock()
	if fid.media && !q.closed {
		admit, committed := q.rung.admit(fid.seq, fid.rung, fid.key, first)
		if committed {
			q.events.Add(frametrace.EvRungSwitch, fid.stream, fid.seq, q.sub,
				frametrace.RungSwitchVal(q.rung.prev, q.rung.cur, int64(q.rung.selBps)))
		}
		if !admit {
			q.mu.Unlock()
			return
		}
	}
	if !q.enqueueLocked(buf.Retain(), fid, first && q.trace != nil) {
		buf.Release()
	}
}

// enqueueLocked is Enqueue's body; it is entered with q.mu held and
// releases it. stamp asks for a sub_enqueue trace stamp on success.
func (q *SubQueue) enqueueLocked(buf *PacketBuf, fid frameID, stamp bool) bool {
	if q.closed {
		q.mu.Unlock()
		return false
	}
	for q.size >= q.limit {
		if !q.dropFrameLocked(fid.key) {
			// Nothing droppable (in-flight tail, or only key frames and the
			// incoming packet is a delta). Reject the incoming packet. It
			// still counts as enqueued-then-dropped so the accounting
			// invariant (enqueued == sent + dropped + depth) holds, before
			// the unlock so that Close freezes the count.
			q.enqueued.Add(1)
			q.dropped.Add(1)
			q.mu.Unlock()
			q.events.Add(frametrace.EvFrameDrop, fid.stream, fid.seq, q.sub, int64(frametrace.DropReject))
			return false
		}
	}
	q.ring[(q.head+q.size)&q.mask] = entry{buf: buf, fid: fid}
	q.size++
	q.depth.Store(int64(q.size))
	q.avgBytes += (buf.n - q.avgBytes) >> 3
	schedule := q.state == qIdle && q.shard != nil
	if schedule {
		q.state = qReady
	}
	if stamp {
		q.trace.StampNow(frametrace.HopSubEnqueue, fid.stream, fid.seq, q.sub)
	}
	q.mu.Unlock()
	if schedule {
		q.shard.pushReady(q)
	}
	q.enqueued.Add(1)
	return true
}

// dropFrameLocked evicts one whole frame to make room, preferring the
// oldest droppable delta frame; a queued key frame is spent only for an
// incoming key frame. Every queued fragment of the victim is removed (runs
// interleaved across streams are evicted in full, never split), and the
// in-flight frame's remaining fragments are immune. Reports whether
// anything was dropped.
func (q *SubQueue) dropFrameLocked(incomingKey bool) bool {
	var deltaVictim, anyVictim frameID
	haveDelta, haveAny := false, false
	for i := 0; i < q.size; i++ {
		e := &q.ring[(q.head+i)&q.mask]
		if q.hasInFlight && e.fid == q.inFlight {
			continue
		}
		if !haveAny {
			anyVictim, haveAny = e.fid, true
		}
		if !e.fid.key {
			deltaVictim, haveDelta = e.fid, true
			break
		}
	}
	var victim frameID
	switch {
	case haveDelta:
		victim = deltaVictim
	case haveAny && incomingKey:
		victim = anyVictim
	default:
		return false
	}
	w, dropped := 0, int64(0)
	for i := 0; i < q.size; i++ {
		e := q.ring[(q.head+i)&q.mask]
		if e.fid == victim {
			e.buf.Release()
			dropped++
			continue
		}
		q.ring[(q.head+w)&q.mask] = e
		w++
	}
	for i := w; i < q.size; i++ {
		q.ring[(q.head+i)&q.mask] = entry{}
	}
	q.size = w
	q.depth.Store(int64(w))
	q.dropped.Add(dropped)
	reason := frametrace.DropDelta
	if victim.key {
		reason = frametrace.DropKey
	}
	q.events.Add(frametrace.EvFrameDrop, victim.stream, victim.seq, q.sub, int64(reason))
	return true
}

// UpdateBandwidth retargets the effective ring depth to the subscriber's
// bandwidth-delay product: depthWindow of traffic at bps, in packets of
// the observed average size, clamped to [minLimit, capacity]. Shrinking
// does not discard queued packets; the next over-limit Enqueue runs the
// drop policy down to the new bound.
func (q *SubQueue) UpdateBandwidth(bps float64) {
	q.mu.Lock()
	avg := q.avgBytes
	if avg <= 0 {
		avg = transport.MTU
	}
	pkts := int(bps * depthWindow.Seconds() / 8 / float64(avg))
	if pkts < q.minLimit {
		pkts = q.minLimit
	}
	if pkts > len(q.ring) {
		pkts = len(q.ring)
	}
	q.limit = pkts
	q.limitA.Store(int64(pkts))
	q.mu.Unlock()
	q.rembBps.Store(math.Float64bits(bps))
}

// retarget re-runs the rung choice for a fresh bandwidth estimate and
// records the new assignment if it moved; the switch itself commits in
// Offer at the next key frame. downswitch reports a move to a cheaper rung.
func (q *SubQueue) retarget(rates *rungRates, bps float64) (downswitch bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	next, down := rates.pick(bps, q.rung.target)
	if next == q.rung.target {
		return false
	}
	q.rung.retarget(next, bps)
	return down
}

// servedOn resolves a NACKed frame seq to the rung this subscriber was
// sent it on (rungState.servedOn).
func (q *SubQueue) servedOn(seq uint32) (rung uint8, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.rung.servedOn(seq)
}

// popBatch moves up to len(bufs) entries out of the ring for writing and
// marks the queue draining. The popped frame becomes in-flight: the drop
// policy will not split the run still queued behind it. Returns 0 when the
// queue is closed or empty (the caller must still call finishDrain).
func (q *SubQueue) popBatch(bufs []*PacketBuf, pkts [][]byte) int {
	q.mu.Lock()
	q.state = qDraining
	if q.closed || q.size == 0 {
		q.mu.Unlock()
		return 0
	}
	n := q.size
	if n > len(bufs) {
		n = len(bufs)
	}
	for i := 0; i < n; i++ {
		e := &q.ring[(q.head+i)&q.mask]
		bufs[i] = e.buf
		pkts[i] = e.buf.Bytes()
		if i == n-1 {
			q.inFlight = e.fid
			q.hasInFlight = true
		}
		*e = entry{}
	}
	q.head = (q.head + n) & q.mask
	q.size -= n
	q.depth.Store(int64(q.size))
	q.mu.Unlock()
	return n
}

// finishDrain returns a drained queue to the scheduler: back onto the ready
// list when more packets arrived during the write, idle otherwise.
func (q *SubQueue) finishDrain() {
	q.mu.Lock()
	if q.closed || q.size == 0 || q.shard == nil {
		q.state = qIdle
		q.mu.Unlock()
		return
	}
	q.state = qReady
	q.mu.Unlock()
	q.shard.pushReady(q)
}

// drainOnce pops one batch and writes it through out, releasing the popped
// references. Unit tests drive queues with it; writer workers inline the
// same sequence with the router's batch-capable conn.
func (q *SubQueue) drainOnce(out Writer) int {
	var bufs [writerBatch]*PacketBuf
	var pkts [writerBatch][]byte
	n := q.popBatch(bufs[:], pkts[:])
	for i := 0; i < n; i++ {
		_, _ = out.WriteTo(pkts[i], q.addr)
		bufs[i].Release()
	}
	if n > 0 {
		q.sent.Add(int64(n))
	}
	q.finishDrain()
	return n
}

// Close rejects further enqueues and releases the backlog. A worker mid-
// WriteBatch holds its popped references separately and releases them when
// the write returns; everything still in the ring is released here, exactly
// once.
func (q *SubQueue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	for q.size > 0 {
		e := &q.ring[q.head]
		e.buf.Release()
		*e = entry{}
		q.head = (q.head + 1) & q.mask
		q.size--
	}
	q.depth.Store(0)
	q.mu.Unlock()
}

// Idle reports whether the queue is empty with no drain in progress.
func (q *SubQueue) Idle() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size == 0 && q.state == qIdle
}

// SubStats is a point-in-time snapshot of one subscriber queue, shaped
// for the /debugz/subscribers JSON endpoint.
type SubStats struct {
	ID       int32   `json:"id"` // subscriber id (trace stamps and events use it)
	Addr     string  `json:"addr"`
	Enqueued int64   `json:"enqueued"`
	Sent     int64   `json:"sent"`
	Dropped  int64   `json:"dropped"`
	Depth    int64   `json:"depth"`
	Limit    int64   `json:"limit"`    // current adaptive depth limit
	Retx     int64   `json:"retx"`     // retransmissions served into this queue from the relay cache
	REMBBps  float64 `json:"remb_bps"` // last REMB bandwidth estimate (0 = none yet)
	// Rung and RungSwitches are the subscriber's current quality-ladder
	// rung and how many rung switches have committed for it.
	Rung         uint8 `json:"rung"`
	RungSwitches int64 `json:"rung_switches"`
	// LastActiveAgeMs is how long the subscriber's reverse path has been
	// silent; Router.Stats fills it (the queue has no clock).
	LastActiveAgeMs float64 `json:"last_active_age_ms"`
}

func (q *SubQueue) stats() SubStats {
	ss := SubStats{
		ID:       q.sub,
		Addr:     q.addr.String(),
		Enqueued: q.enqueued.Load(),
		Sent:     q.sent.Load(),
		Dropped:  q.dropped.Load(),
		Depth:    q.depth.Load(),
		Limit:    q.limitA.Load(),
		Retx:     q.retx.Load(),
		REMBBps:  math.Float64frombits(q.rembBps.Load()),
	}
	q.mu.Lock()
	ss.Rung, ss.RungSwitches = q.rung.cur, q.rung.switches
	q.mu.Unlock()
	return ss
}
