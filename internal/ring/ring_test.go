package ring

import (
	"fmt"
	"testing"
)

// TestRingOwnership pins the collision rule without needing a scheduler
// accident: a writer whose slot is owned by another lap, or already
// published by a later one, drops its record, counts it, and leaves the
// slot exactly as it found it.
func TestRingOwnership(t *testing.T) {
	r := New(64)
	r.Put(1, 1, 1, 1) // ticket 0 → slot 0 published as 1

	r.next.Store(64) // next ticket laps onto slot 0
	r.slots[0].ticket.Store(busy)
	r.Put(2, 2, 2, 2)
	if r.Dropped() != 1 || r.slots[0].w[0].Load() != 1 || r.slots[0].ticket.Load() != busy {
		t.Fatalf("write into an owned slot: dropped=%d w0=%d", r.Dropped(), r.slots[0].w[0].Load())
	}

	r.next.Store(64)
	r.slots[0].ticket.Store(128 + 1) // a later lap got there first
	r.Put(3, 3, 3, 3)
	if r.Dropped() != 2 || r.slots[0].w[0].Load() != 1 || r.slots[0].ticket.Load() != 129 {
		t.Fatalf("write behind a later lap: dropped=%d w0=%d", r.Dropped(), r.slots[0].w[0].Load())
	}

	r.next.Store(192)
	r.Put(4, 4, 4, 4) // an older published ticket is fair game
	if r.Dropped() != 2 || r.slots[0].w[0].Load() != 4 || r.slots[0].ticket.Load() != 193 {
		t.Fatalf("overwrite of an older lap: dropped=%d w0=%d", r.Dropped(), r.slots[0].w[0].Load())
	}
}

func TestRingTicketValidationAtWrap(t *testing.T) {
	r := New(64)
	err := ConformWrap(WrapUser{
		Cap:   r.Cap(),
		Write: func(seq uint32) { s := uint64(seq); r.Put(s, s*7, s+3, ^s) },
		Read: func() (seqs []uint32, err error) {
			r.Recent(r.Cap(), func(w [Words]uint64) {
				if s := w[0]; w[1] != s*7 || w[2] != s+3 || w[3] != ^s {
					err = fmt.Errorf("%v", w)
				}
				seqs = append(seqs, uint32(w[0]))
			})
			return seqs, err
		},
		Recorded: r.Recorded,
		Dropped:  r.Dropped,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRingPutDoesNotAllocate(t *testing.T) {
	r := New(64)
	if n := testing.AllocsPerRun(1000, func() { r.Put(1, 2, 3, 4) }); n != 0 {
		t.Fatalf("Put allocates %.1f per call", n)
	}
}

func BenchmarkRingPut(b *testing.B) {
	r := New(1 << 12)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.Put(1, 2, 3, 4)
		}
	})
}
