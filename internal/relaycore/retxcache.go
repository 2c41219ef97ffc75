package relaycore

import (
	"sync"
	"time"
)

const (
	// retxCachePackets bounds the relay-wide cache. The router splits it
	// evenly across shards, floored at 64 packets per shard.
	retxCachePackets = 1024
	// retxCacheAge bounds how old a cached packet may be and still serve a
	// NACK: past it the receiver has skipped the frame.
	retxCacheAge = time.Second
)

// retxCache is a bounded FIFO of recently routed media packets, keyed by
// (stream, frameSeq, frag) — the same triple a NACK names — so the relay
// can serve retransmissions locally instead of escalating every loss to
// the sender (a full extra RTT plus sender load proportional to receiver
// loss). Each shard owns one cache, filled by its ingest goroutine, so
// inserts stay off the producer hot path and the cache needs only its own
// mutex (lookups come from the feedback goroutine).
//
// Entries hold a retained PacketBuf reference: Insert retains, eviction
// and close release, and Lookup retains once more on behalf of the
// caller — the pool's Live() leak invariant keeps holding through any
// interleaving of route, NACK, eviction, and shutdown.
//
// Sizing: capacity is packets, age is wall time; the router's caches hold
// retxCachePackets / retxCacheAge, about one GOP of 4K media — the window
// inside which a receiver's NACK (15 ms after a fragment goes missing,
// re-request 250 ms) can still arrive. Duplicate keys (a rare sender retransmission passing
// through) overwrite in place: the newer copy wins and the older slot is
// released immediately.
type retxCache struct {
	mu     sync.Mutex
	closed bool
	ageNs  int64

	// FIFO ring indexed by absolute insert position; idx maps a key to the
	// absolute position of its live slot, so eviction of an overwritten
	// slot never deletes a newer entry's index.
	ring    []retxSlot
	absHead int64 // absolute position of the oldest live slot
	size    int

	idx map[nackKey]int64

	evicted int64
}

type retxSlot struct {
	key   nackKey
	buf   *PacketBuf
	stamp int64 // insert time, ns
}

func newRetxCache(capacity int, ageNs int64) *retxCache {
	if capacity < 1 {
		capacity = 1
	}
	return &retxCache{
		ageNs: ageNs,
		ring:  make([]retxSlot, capacity),
		idx:   make(map[nackKey]int64, capacity),
	}
}

// Insert caches one media packet, retaining a reference for the cache.
// Packets older than the age bound are evicted first, then the oldest
// entry if the ring is full. No-op after close.
func (c *retxCache) Insert(k nackKey, buf *PacketBuf, now int64) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.evictLocked(now)
	if pos, ok := c.idx[k]; ok {
		// Overwrite in place: a retransmitted copy of a cached packet
		// replaces the original without consuming capacity.
		s := &c.ring[pos%int64(len(c.ring))]
		s.buf.Release()
		s.buf = buf.Retain()
		s.stamp = now
		c.mu.Unlock()
		return
	}
	if c.size == len(c.ring) {
		c.evictOldestLocked()
	}
	pos := c.absHead + int64(c.size)
	c.ring[pos%int64(len(c.ring))] = retxSlot{key: k, buf: buf.Retain(), stamp: now}
	c.idx[k] = pos
	c.size++
	c.mu.Unlock()
}

// Lookup returns the cached packet for k with a reference retained for the
// caller (who must Release it), or nil on miss / expiry / closed cache.
func (c *retxCache) Lookup(k nackKey, now int64) *PacketBuf {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	pos, ok := c.idx[k]
	if !ok {
		c.mu.Unlock()
		return nil
	}
	s := &c.ring[pos%int64(len(c.ring))]
	if c.ageNs > 0 && now-s.stamp >= c.ageNs {
		c.mu.Unlock()
		return nil
	}
	buf := s.buf.Retain()
	c.mu.Unlock()
	return buf
}

// evictLocked releases entries older than the age bound, oldest first.
func (c *retxCache) evictLocked(now int64) {
	if c.ageNs <= 0 {
		return
	}
	for c.size > 0 {
		s := &c.ring[c.absHead%int64(len(c.ring))]
		if now-s.stamp < c.ageNs {
			return
		}
		c.evictOldestLocked()
	}
}

// evictOldestLocked releases the oldest slot. The index entry is removed
// only if it still points at this slot (an overwritten duplicate's index
// already points at the newer position).
func (c *retxCache) evictOldestLocked() {
	s := &c.ring[c.absHead%int64(len(c.ring))]
	if pos, ok := c.idx[s.key]; ok && pos == c.absHead {
		delete(c.idx, s.key)
	}
	s.buf.Release()
	*s = retxSlot{}
	c.absHead++
	c.size--
	c.evicted++
}

// close releases every cached reference; Insert and Lookup become no-ops.
func (c *retxCache) close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	for c.size > 0 {
		s := &c.ring[c.absHead%int64(len(c.ring))]
		s.buf.Release()
		*s = retxSlot{}
		c.absHead++
		c.size--
	}
	c.idx = nil
	c.mu.Unlock()
}

// retxStats is a point-in-time (size, evicted) snapshot.
func (c *retxCache) retxStats() (size int, evicted int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size, c.evicted
}

// retxShard maps a cache key to its owner shard, spreading cache memory
// and insert work across shards regardless of where subscribers hash.
func retxShard(k nackKey, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(k.seq)<<24 | uint64(k.frag)<<8 | uint64(k.stream) | uint64(k.rung)<<56
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h % uint64(n))
}
