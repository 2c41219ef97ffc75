package relaycore

import (
	"sync"
	"sync/atomic"

	"livo/internal/frametrace"
)

// shard is one core's slice of the data plane, SO_REUSEPORT-style: it owns
// a partition of the subscriber registry, its own packet-buffer pool (so
// ingest loads never contend across cores), a bounded ingest ring fed by
// RouteMedia, and a ready list of subscriber queues with pending packets.
// One ingest goroutine fans ring descriptors into the partition's queues;
// the router's writer workers (writersPerShard per shard) drain ready
// queues in WriteBatch-sized pops, stealing from other shards' ready lists
// when their home shard has nothing — one slow partition cannot idle other
// cores.
type shard struct {
	id int

	// Partition snapshot (copy-on-write under the router's membership
	// mutex); the ingest goroutine reads it with one atomic load.
	subs atomic.Pointer[[]*Subscriber]

	// Ingest ring: descriptors {buf, fid} pushed by RouteMedia (possibly
	// many producers — one per reuseport socket), popped in batches by the
	// single ingest goroutine. A full ring backpressures the producer.
	mu       sync.Mutex
	notEmpty *sync.Cond
	notFull  *sync.Cond
	ring     []ingestEntry
	mask     int
	head     int
	size     int
	closed   bool

	// pending counts descriptors pushed but not yet fanned out, so WaitIdle
	// cannot report idle while a popped batch is mid-fan-out.
	pending atomic.Int64

	// Ready list: FIFO of queues with packets to write. notify (cap 1)
	// wakes this shard's parked writer workers.
	readyMu   sync.Mutex
	ready     []*SubQueue
	readyHead int
	notify    chan struct{}

	routed atomic.Int64 // packets fanned out by this shard's ingest worker
	stolen atomic.Int64 // queues this shard's workers stole from other shards

	// Retransmission cache owned by this shard. The ingest goroutine
	// inserts cache-flagged descriptors; the router's feedback path looks
	// up NACKs. now is the router's clock.
	retx *retxCache
	now  func() int64

	// trace, when non-nil, receives a shard_route stamp per subscriber for
	// each frame's first fragment (cfg.Trace; nil disables tracing).
	trace *frametrace.Ledger
}

type ingestEntry struct {
	buf   *PacketBuf
	fid   frameID
	rk    nackKey // retransmission-cache key (valid when cache is set)
	cache bool    // this shard owns caching this packet
	first bool    // a media frame's first data fragment: trace stamps fire on it, rung switches commit at it
}

// ingestRingCap bounds per-shard ingest backlog (power of two). At 2048
// descriptors it absorbs a multi-frame burst before backpressuring the
// read loop.
const ingestRingCap = 2048

// ingestBatch bounds how many descriptors the ingest worker pops per lock
// acquisition.
const ingestBatch = 64

func newShard(id int) *shard {
	s := &shard{
		id:     id,
		ring:   make([]ingestEntry, ingestRingCap),
		mask:   ingestRingCap - 1,
		notify: make(chan struct{}, 1),
	}
	s.notEmpty = sync.NewCond(&s.mu)
	s.notFull = sync.NewCond(&s.mu)
	empty := []*Subscriber{}
	s.subs.Store(&empty)
	return s
}

// subCount returns the partition size with one atomic load (RouteMedia
// skips shards with no subscribers).
func (s *shard) subCount() int { return len(*s.subs.Load()) }

// push hands one packet descriptor to the shard, taking ownership of the
// caller's reference on success. It blocks while the ring is full
// (backpressure) and returns false once the shard is closed.
func (s *shard) push(e ingestEntry) bool {
	s.mu.Lock()
	for s.size == len(s.ring) && !s.closed {
		s.notFull.Wait()
	}
	if s.closed {
		s.mu.Unlock()
		return false
	}
	s.ring[(s.head+s.size)&s.mask] = e
	s.size++
	s.pending.Add(1)
	wake := s.size == 1
	s.mu.Unlock()
	if wake {
		s.notEmpty.Signal()
	}
	return true
}

// popIngest fills batch with queued descriptors, blocking until at least
// one arrives. On close it releases any remaining backlog and reports
// done=false.
func (s *shard) popIngest(batch []ingestEntry) (n int, ok bool) {
	s.mu.Lock()
	for s.size == 0 && !s.closed {
		s.notEmpty.Wait()
	}
	if s.closed {
		for s.size > 0 {
			e := &s.ring[s.head]
			e.buf.Release()
			*e = ingestEntry{}
			s.head = (s.head + 1) & s.mask
			s.size--
			s.pending.Add(-1)
		}
		s.mu.Unlock()
		return 0, false
	}
	n = s.size
	if n > len(batch) {
		n = len(batch)
	}
	for i := 0; i < n; i++ {
		batch[i] = s.ring[(s.head+i)&s.mask]
		s.ring[(s.head+i)&s.mask] = ingestEntry{}
	}
	s.head = (s.head + n) & s.mask
	s.size -= n
	s.mu.Unlock()
	s.notFull.Broadcast()
	return n, true
}

// runIngest is the shard's ingest goroutine: it pops descriptor batches and
// enqueues a reference onto every queue in the shard's partition. This is
// the per-packet fan-out work the sharding spreads across cores.
func (s *shard) runIngest(wg *sync.WaitGroup) {
	defer wg.Done()
	batch := make([]ingestEntry, ingestBatch)
	for {
		n, ok := s.popIngest(batch)
		if !ok {
			return
		}
		subs := *s.subs.Load()
		for i := 0; i < n; i++ {
			e := batch[i]
			batch[i] = ingestEntry{}
			if e.cache {
				s.retx.Insert(e.rk, e.buf, s.now())
			}
			stamp := e.first && s.trace != nil
			for _, sub := range subs {
				// shard_route is stamped per subscriber (not once per
				// shard with NoSub): a NoSub stamp from another shard —
				// or from the retx-cache owner's subscriber-less visit —
				// can land after this shard's sub_enqueue, and the
				// collector's max-wins merge would then show the frame
				// leaving the shard after it entered the queue.
				if stamp {
					s.trace.StampNow(frametrace.HopShardRoute, e.fid.stream, e.fid.seq, sub.q.sub)
				}
				sub.q.Offer(e.buf, e.fid, e.first)
			}
			e.buf.Release()
			s.pending.Add(-1)
		}
		s.routed.Add(int64(n))
	}
}

// close wakes everything parked on the ingest ring; the ingest goroutine
// releases the remaining backlog on its way out.
func (s *shard) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.notEmpty.Broadcast()
	s.notFull.Broadcast()
}

// pushReady appends a queue to the shard's ready list and wakes one parked
// worker. A queue is in at most one ready list at a time (queue state
// machine), so the list is bounded by the partition size.
func (s *shard) pushReady(q *SubQueue) {
	s.readyMu.Lock()
	s.ready = append(s.ready, q)
	s.readyMu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// popReady removes the oldest ready queue (FIFO — a hot queue re-pushed
// after each batch cannot starve its shard-mates), or nil.
func (s *shard) popReady() *SubQueue {
	s.readyMu.Lock()
	if s.readyHead == len(s.ready) {
		if s.readyHead > 0 {
			s.ready = s.ready[:0]
			s.readyHead = 0
		}
		s.readyMu.Unlock()
		return nil
	}
	q := s.ready[s.readyHead]
	s.ready[s.readyHead] = nil
	s.readyHead++
	if s.readyHead == len(s.ready) {
		s.ready = s.ready[:0]
		s.readyHead = 0
	}
	s.readyMu.Unlock()
	return q
}

// idle reports whether the shard has no queued or in-flight ingest work.
func (s *shard) idle() bool { return s.pending.Load() == 0 }
