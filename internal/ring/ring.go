// Package ring is the one lock-free "most recent N records" ring behind
// frametrace.Ledger and frametrace.EventRing. Those types pack and unpack
// their records into payload words; the slot protocol lives here and
// nowhere else.
//
// A slot is a ticket word plus Words payload words, all atomics. Writers
// take a ticket with one atomic increment; ticket i belongs to slot
// i mod Cap. The ticket word holds 0 (never written), i+1 (record i is
// published and consistent), or busy (one writer owns the slot and is
// storing its payload).
//
// Ownership is exclusive: a writer claims its slot with a compare-and-swap
// from the published value it saw to busy, stores the payload, and
// publishes i+1. A writer that finds the slot busy — a writer a full lap
// behind or ahead is still inside it — or already published by a later
// lap does not wait: it drops its record and counts it in Dropped. These
// rings sit on the media hot path and feed debug views; losing one record
// in a collision that needs Cap concurrent writes inside one slot write is
// cheaper than a spin there, and unlike a torn record it is visible.
//
// A reader validates the ticket before and after copying the payload.
// Tickets are unique and a slot passes through busy on every rewrite, so
// a ticket that reads i+1 both times brackets a payload no writer touched.
package ring

import "sync/atomic"

// Words is the payload size of every slot, in 64-bit words.
const Words = 4

const busy = ^uint64(0)

type slot struct {
	ticket atomic.Uint64
	w      [Words]atomic.Uint64
}

// Ring is a fixed-capacity ring of the most recent records. The zero
// value is not usable; call New.
type Ring struct {
	slots   []slot
	mask    uint64
	next    atomic.Uint64
	dropped atomic.Uint64
}

// New creates a ring with at least capacity slots (rounded up to a power
// of two; minimum 64).
func New(capacity int) *Ring {
	n := 64
	for n < capacity {
		n <<= 1
	}
	return &Ring{slots: make([]slot, n), mask: uint64(n - 1)}
}

// Cap returns the ring capacity.
func (r *Ring) Cap() int { return len(r.slots) }

// Recorded returns how many tickets have been issued (≥ Cap means the
// ring has wrapped); Dropped of them never landed.
func (r *Ring) Recorded() uint64 { return r.next.Load() }

// Dropped returns how many records were abandoned because their slot was
// owned by a writer on another lap.
func (r *Ring) Dropped() uint64 { return r.dropped.Load() }

// Put appends one record, overwriting the oldest once full. Safe for
// concurrent use, free of allocations, and never blocks.
func (r *Ring) Put(w0, w1, w2, w3 uint64) {
	i := r.next.Add(1) - 1
	s := &r.slots[i&r.mask]
	cur := s.ticket.Load()
	if cur == busy || cur > i+1 || !s.ticket.CompareAndSwap(cur, busy) {
		r.dropped.Add(1)
		return
	}
	s.w[0].Store(w0)
	s.w[1].Store(w1)
	s.w[2].Store(w2)
	s.w[3].Store(w3)
	s.ticket.Store(i + 1)
}

// Recent calls emit for up to n of the most recent records, oldest
// first. Slots being rewritten or lost to a drop are skipped.
func (r *Ring) Recent(n int, emit func(w [Words]uint64)) {
	cur := r.next.Load()
	if n <= 0 || cur == 0 {
		return
	}
	if uint64(n) > cur {
		n = int(cur)
	}
	if n > len(r.slots) {
		n = len(r.slots)
	}
	for i := cur - uint64(n); i < cur; i++ {
		s := &r.slots[i&r.mask]
		if s.ticket.Load() != i+1 {
			continue
		}
		w := [Words]uint64{s.w[0].Load(), s.w[1].Load(), s.w[2].Load(), s.w[3].Load()}
		if s.ticket.Load() != i+1 {
			continue // rewritten mid-copy
		}
		emit(w)
	}
}
