package relaycore

import (
	"bytes"
	"testing"
)

func TestBufPoolRecycles(t *testing.T) {
	bp := NewBufPool(64)
	p1 := bp.Get(10)
	if bp.Misses() != 1 {
		t.Fatalf("misses = %d, want 1", bp.Misses())
	}
	p1.Release()
	p2 := bp.Get(20)
	if p2 != p1 {
		t.Fatalf("pool did not recycle the released buffer")
	}
	if bp.Misses() != 1 {
		t.Fatalf("misses = %d after recycle, want 1", bp.Misses())
	}
	if len(p2.Bytes()) != 20 {
		t.Fatalf("len(Bytes()) = %d, want 20", len(p2.Bytes()))
	}
}

func TestBufRefcount(t *testing.T) {
	bp := NewBufPool(64)
	p := bp.Get(8)
	p.Retain() // two references
	p.Release()
	// Still one reference out: the pool must not hand it back.
	q := bp.Get(8)
	if q == p {
		t.Fatalf("buffer recycled while a reference was outstanding")
	}
	p.Release()
	r := bp.Get(8)
	if r != p {
		t.Fatalf("buffer not recycled after final release")
	}
}

func TestBufPoolOversize(t *testing.T) {
	bp := NewBufPool(64)
	p := bp.Get(1000)
	if len(p.Bytes()) != 1000 {
		t.Fatalf("oversize len = %d, want 1000", len(p.Bytes()))
	}
	p.Release() // must not enter the pool (one-off allocation)
	q := bp.Get(8)
	if q == p {
		t.Fatalf("oversize buffer entered the pool")
	}
}

func TestBufPoolLoadCopies(t *testing.T) {
	bp := NewBufPool(64)
	src := []byte{1, 2, 3, 4}
	p := bp.Load(src)
	src[0] = 99
	if !bytes.Equal(p.Bytes(), []byte{1, 2, 3, 4}) {
		t.Fatalf("Load aliased the caller's buffer: %v", p.Bytes())
	}
	p.Release()
}

func TestBufPoolBlankInPlaceFill(t *testing.T) {
	bp := NewBufPool(64)
	p := bp.GetBlank()
	if len(p.Raw()) != 64 {
		t.Fatalf("blank Raw len = %d, want the pool's class, 64", len(p.Raw()))
	}
	// recvmmsg-style in-place fill: write into Raw, record the length.
	copy(p.Raw(), []byte{7, 8, 9})
	p.SetLen(3)
	if !bytes.Equal(p.Bytes(), []byte{7, 8, 9}) {
		t.Fatalf("Bytes after SetLen = %v", p.Bytes())
	}
	p.SetLen(1000) // clamped to the backing array
	if len(p.Bytes()) != 64 {
		t.Fatalf("SetLen past class: len = %d, want 64", len(p.Bytes()))
	}
	p.Release()
	if bp.Live() != 0 {
		t.Fatalf("Live = %d after release, want 0", bp.Live())
	}
	// The blank path recycles like any other get.
	if q := bp.GetBlank(); q != p {
		t.Fatalf("blank buffer not recycled")
	}
}

func TestBufPoolSteadyStateZeroAlloc(t *testing.T) {
	bp := NewBufPool(DefaultBufClass)
	payload := make([]byte, 1200)
	// Warm the pool.
	bp.Load(payload).Release()
	allocs := testing.AllocsPerRun(200, func() {
		bp.Load(payload).Release()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Load/Release allocates %.1f per op, want 0", allocs)
	}
}
