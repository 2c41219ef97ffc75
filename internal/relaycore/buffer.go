package relaycore

import (
	"sync"
	"sync/atomic"
)

// PacketBuf is a pooled, refcounted packet buffer. One buffer carries one
// wire packet through the fan-out: the router loads it once and hands a
// reference to every subscriber queue, so a 1000-subscriber fan-out copies
// the payload zero times.
//
// Ownership contract (mirrors the arena contract of DESIGN.md §5): every
// holder of a reference may read Bytes() until it calls Release exactly
// once; the last Release recycles the buffer, after which any access is a
// use-after-free. Retain before handing the buffer to another goroutine.
type PacketBuf struct {
	pool *BufPool
	b    []byte
	n    int
	refs atomic.Int32
}

// Bytes returns the packet's wire bytes. Valid only while the caller holds
// an unreleased reference.
func (p *PacketBuf) Bytes() []byte { return p.b[:p.n] }

// Retain adds a reference and returns p for chaining.
func (p *PacketBuf) Retain() *PacketBuf {
	p.refs.Add(1)
	return p
}

// Release drops one reference; the last one returns the buffer to its pool.
func (p *PacketBuf) Release() {
	if p.refs.Add(-1) == 0 && p.pool != nil {
		p.pool.put(p)
	}
}

// BufPool recycles PacketBufs of one class size — large enough for any
// media packet (MTU + headers). Requests beyond the class size are served
// by a one-off allocation that is garbage-collected instead of recycled
// (rare: our wire format never exceeds ~1.3 KB, but a relay must not
// corrupt oversized datagrams).
type BufPool struct {
	class int

	mu   sync.Mutex
	free []*PacketBuf

	misses   atomic.Int64
	oversize atomic.Int64
	gets     atomic.Int64
	puts     atomic.Int64
}

// DefaultBufClass comfortably holds a media packet: MTU (1200) plus the
// transport header and media magic, rounded up to a power of two.
const DefaultBufClass = 2048

// NewBufPool creates a pool with the given class size (0 picks the default).
func NewBufPool(class int) *BufPool {
	if class <= 0 {
		class = DefaultBufClass
	}
	return &BufPool{class: class}
}

// Get returns a buffer sized for n bytes with one reference held.
func (bp *BufPool) Get(n int) *PacketBuf {
	if n > bp.class {
		bp.oversize.Add(1)
		p := &PacketBuf{b: make([]byte, n), n: n}
		p.refs.Store(1)
		return p
	}
	var p *PacketBuf
	bp.mu.Lock()
	if k := len(bp.free); k > 0 {
		p = bp.free[k-1]
		bp.free[k-1] = nil
		bp.free = bp.free[:k-1]
	}
	bp.mu.Unlock()
	if p == nil {
		bp.misses.Add(1)
		p = &PacketBuf{pool: bp, b: make([]byte, bp.class)}
	}
	p.n = n
	p.refs.Store(1)
	bp.gets.Add(1)
	return p
}

// GetBlank returns a class-size buffer (one reference held) for batch
// ingest to fill in place: recvmmsg reads the wire directly into Raw and
// SetLen records the datagram length, eliminating even the single Load
// copy on the batched path.
func (bp *BufPool) GetBlank() *PacketBuf { return bp.Get(bp.class) }

// Raw exposes the full backing array for an in-place fill. Valid under
// the same ownership contract as Bytes.
func (p *PacketBuf) Raw() []byte { return p.b }

// SetLen records the packet length after an in-place fill of Raw.
func (p *PacketBuf) SetLen(n int) {
	if n < 0 {
		n = 0
	}
	if n > len(p.b) {
		n = len(p.b)
	}
	p.n = n
}

// Load copies b into a pooled buffer (the only copy on the fan-out path).
func (bp *BufPool) Load(b []byte) *PacketBuf {
	p := bp.Get(len(b))
	copy(p.b, b)
	return p
}

func (bp *BufPool) put(p *PacketBuf) {
	bp.puts.Add(1)
	bp.mu.Lock()
	bp.free = append(bp.free, p)
	bp.mu.Unlock()
}

// Misses returns how many buffers were newly allocated (pool cold or
// growing); steady state adds none.
func (bp *BufPool) Misses() int64 { return bp.misses.Load() }

// Live returns how many pooled buffers are checked out (get minus put).
// After every reference is released it must read 0 — the leak invariant the
// unsubscribe-mid-frame regression test asserts across all shards.
func (bp *BufPool) Live() int64 { return bp.gets.Load() - bp.puts.Load() }
