package frametrace

import (
	"fmt"
	"sync"
	"testing"

	"livo/internal/ring"
)

// TestNilSafe checks that a nil ledger and a nil event ring accept the
// full API as no-ops, which is how tracing is disabled.
func TestNilSafe(t *testing.T) {
	var l *Ledger
	l.Stamp(HopCapture, 0, 1, NoSub, 123)
	l.StampNow(HopCapture, 0, 1, NoSub)
	if l.Recent(10) != nil || l.Recorded() != 0 || l.Dropped() != 0 || l.Cap() != 0 {
		t.Fatal("nil ledger should be inert")
	}
	var r *EventRing
	r.Add(EvPLI, 0, 0, NoSub, 0)
	if r.Recent(10) != nil || r.Recorded() != 0 || r.Dropped() != 0 || r.Cap() != 0 {
		t.Fatal("nil event ring should be inert")
	}
}

// TestLedgerRoundTrip checks that stamps survive the ring with all
// fields intact, including the packed hop/stream/sub encoding.
func TestLedgerRoundTrip(t *testing.T) {
	l := NewLedger(64)
	l.Stamp(HopSubDrain, 2, 0xdeadbeef, 37, -42)
	got := l.Recent(1)
	if len(got) != 1 {
		t.Fatalf("Recent: got %d stamps, want 1", len(got))
	}
	want := Stamp{Seq: 0xdeadbeef, Hop: HopSubDrain, Stream: 2, Sub: 37, TimeNs: -42}
	if got[0] != want {
		t.Fatalf("round trip: got %+v, want %+v", got[0], want)
	}
}

// TestLedgerWraparound fills the ring several times over and checks that
// Recent returns exactly the newest window in order.
func TestLedgerWraparound(t *testing.T) {
	l := NewLedger(64)
	if l.Cap() != 64 {
		t.Fatalf("cap: got %d, want 64", l.Cap())
	}
	const total = 64*3 + 17
	for i := 0; i < total; i++ {
		l.Stamp(HopWire, 0, uint32(i), NoSub, int64(i))
	}
	if l.Recorded() != total {
		t.Fatalf("recorded: got %d, want %d", l.Recorded(), total)
	}
	got := l.Recent(1000)
	if len(got) != 64 {
		t.Fatalf("Recent after wrap: got %d, want 64", len(got))
	}
	for i, st := range got {
		wantSeq := uint32(total - 64 + i)
		if st.Seq != wantSeq || st.TimeNs != int64(wantSeq) {
			t.Fatalf("slot %d: got seq=%d t=%d, want %d", i, st.Seq, st.TimeNs, wantSeq)
		}
	}
}

// TestLedgerConcurrent hammers one ledger from several writers across
// many wraps while readers drain it, and checks every stamp a reader
// sees is internally consistent (TimeNs encodes the seq). Run with
// -race to exercise the ticket-validation path.
func TestLedgerConcurrent(t *testing.T) {
	l := NewLedger(128)
	const writers, perWriter = 4, 4096
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				seq := uint32(w*perWriter + i)
				l.Stamp(HopJitter, uint8(w), seq, int32(w), int64(seq)*3+1)
			}
		}(w)
	}
	var readerWg sync.WaitGroup
	readerWg.Add(1)
	go func() {
		defer readerWg.Done()
		for {
			for _, st := range l.Recent(128) {
				if st.TimeNs != int64(st.Seq)*3+1 {
					t.Errorf("torn stamp: seq=%d t=%d", st.Seq, st.TimeNs)
					return
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	readerWg.Wait()
	if l.Recorded() != writers*perWriter {
		t.Fatalf("recorded: got %d, want %d", l.Recorded(), writers*perWriter)
	}
}

// TestLedgerTicketValidationAtWrap and TestEventRingTicketValidationAtWrap
// run the ring's shared wrap suite (ring.ConformWrap) through each pack/
// unpack layer. Run with -race.
func TestLedgerTicketValidationAtWrap(t *testing.T) {
	l := NewLedger(64)
	err := ring.ConformWrap(ring.WrapUser{
		Cap:   l.Cap(),
		Write: func(seq uint32) { l.Stamp(HopJitter, uint8(seq), seq, int32(seq)-7, int64(seq)*3+1) },
		Read: func() (seqs []uint32, err error) {
			for _, st := range l.Recent(l.Cap()) {
				if st.Hop != HopJitter || st.Stream != uint8(st.Seq) || st.Sub != int32(st.Seq)-7 || st.TimeNs != int64(st.Seq)*3+1 {
					err = fmt.Errorf("%+v", st)
				}
				seqs = append(seqs, st.Seq)
			}
			return seqs, err
		},
		Recorded: l.Recorded,
		Dropped:  l.Dropped,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEventRingTicketValidationAtWrap(t *testing.T) {
	r := NewEventRing(64)
	err := ring.ConformWrap(ring.WrapUser{
		Cap:   r.Cap(),
		Write: func(seq uint32) { r.Add(EvRetxHit, uint8(seq), seq, int32(seq)-7, int64(seq)*5+2) },
		Read: func() (seqs []uint32, err error) {
			for _, ev := range r.Recent(r.Cap()) {
				if ev.Kind != EvRetxHit || ev.Stream != uint8(ev.Seq) || ev.Sub != int32(ev.Seq)-7 || ev.Val != int64(ev.Seq)*5+2 || ev.TimeNs == 0 {
					err = fmt.Errorf("%+v", ev)
				}
				seqs = append(seqs, ev.Seq)
			}
			return seqs, err
		},
		Recorded: r.Recorded,
		Dropped:  r.Dropped,
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEventRing checks event round-trip and wraparound.
func TestEventRing(t *testing.T) {
	r := NewEventRing(1)
	if r.Cap() != 64 {
		t.Fatalf("cap: got %d, want minimum 64", r.Cap())
	}
	r.Add(EvFrameDrop, 1, 99, 5, int64(DropDelta))
	r.Add(EvREMB, 0, 0, NoSub, 4_000_000)
	got := r.Recent(10)
	if len(got) != 2 {
		t.Fatalf("Recent: got %d events", len(got))
	}
	if got[0].Kind != EvFrameDrop || got[0].Seq != 99 || got[0].Sub != 5 ||
		DropReason(got[0].Val) != DropDelta || got[0].Stream != 1 {
		t.Fatalf("drop event: got %+v", got[0])
	}
	if got[1].Kind != EvREMB || got[1].Val != 4_000_000 || got[1].Sub != NoSub {
		t.Fatalf("remb event: got %+v", got[1])
	}
	for i := 0; i < 200; i++ {
		r.Add(EvRetxHit, 0, uint32(i), 0, 0)
	}
	if n := len(r.Recent(1000)); n != 64 {
		t.Fatalf("after wrap: got %d events, want 64", n)
	}
}

// TestHopAndEventNames pins the string tables to the hop/kind order.
func TestHopAndEventNames(t *testing.T) {
	for h := Hop(0); int(h) < NumHops; h++ {
		if h.String() == "hop?" || h.String() == "" {
			t.Fatalf("hop %d has no name", h)
		}
	}
	if HopCapture.String() != "capture" || HopReconstruct.String() != "reconstruct" {
		t.Fatal("hop name table out of order")
	}
	for k := EventKind(0); int(k) < NumEventKinds; k++ {
		if k.String() == "event?" || k.String() == "" {
			t.Fatalf("event kind %d has no name", k)
		}
	}
	if Hop(200).String() != "hop?" || EventKind(200).String() != "event?" {
		t.Fatal("out-of-range names should be sentinels")
	}
}
