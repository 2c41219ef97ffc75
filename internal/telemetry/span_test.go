package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"livo/internal/ring"
)

func nowForTest() time.Time { return time.Now().Add(-time.Millisecond) }

func TestSpanRingBasics(t *testing.T) {
	r := NewSpanRing(64)
	for i := 0; i < 10; i++ {
		r.Record(uint32(i), StageTile, int64(i*1000), 10)
	}
	spans := r.Recent(5)
	if len(spans) != 5 {
		t.Fatalf("Recent(5) returned %d spans", len(spans))
	}
	// Oldest first: sequences 5..9.
	for i, sp := range spans {
		if sp.Seq != uint32(5+i) {
			t.Fatalf("span %d has seq %d, want %d", i, sp.Seq, 5+i)
		}
	}
	if r.Recorded() != 10 {
		t.Fatalf("Recorded = %d, want 10", r.Recorded())
	}
}

// TestSpanRingWraparound overfills the ring several times over and checks
// that exactly the newest Cap() spans survive, in order.
func TestSpanRingWraparound(t *testing.T) {
	r := NewSpanRing(64)
	capN := r.Cap()
	total := capN*3 + 17
	for i := 0; i < total; i++ {
		r.Record(uint32(i), StageSend, int64(i), int64(i))
	}
	spans := r.Recent(total) // asks for more than capacity
	if len(spans) != capN {
		t.Fatalf("after wraparound Recent returned %d spans, want %d", len(spans), capN)
	}
	for i, sp := range spans {
		want := uint32(total - capN + i)
		if sp.Seq != want {
			t.Fatalf("span %d has seq %d, want %d", i, sp.Seq, want)
		}
		if sp.StartNs != int64(want) || sp.DurNs != int64(want) {
			t.Fatalf("span %d fields torn: %+v", i, sp)
		}
	}
}

// TestSpanRingConcurrent records from many goroutines while a reader
// drains; under -race this validates the atomic slot protocol. Torn slots
// must be skipped, never returned with mixed fields.
func TestSpanRingConcurrent(t *testing.T) {
	r := NewSpanRing(128)
	const workers = 8
	const per = 5000
	stop := make(chan struct{})
	var readerDone sync.WaitGroup
	readerDone.Add(1)
	go func() { // concurrent reader
		defer readerDone.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, sp := range r.Recent(64) {
				// Writers encode seq into start and dur; a torn slot would
				// mix values from two spans.
				if sp.StartNs != int64(sp.Seq) || sp.DurNs != int64(sp.Seq) {
					t.Errorf("torn span: %+v", sp)
					return
				}
			}
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < per; i++ {
				seq := uint32(w*per + i)
				r.Record(seq, StageRecv, int64(seq), int64(seq))
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readerDone.Wait()
	if r.Recorded() != uint64(workers*per) {
		t.Fatalf("Recorded = %d, want %d", r.Recorded(), workers*per)
	}
}

// TestSpanRingTicketValidationAtWrap runs the ring's shared wrap suite
// (ring.ConformWrap) through the span pack/unpack layer. Run with -race.
func TestSpanRingTicketValidationAtWrap(t *testing.T) {
	r := NewSpanRing(64) // small ring so every reader pass races a wrap
	err := ring.ConformWrap(ring.WrapUser{
		Cap:   r.Cap(),
		Write: func(seq uint32) { r.Record(seq, StageJitter, int64(seq)*7, int64(seq)+3) },
		Read: func() (seqs []uint32, err error) {
			for _, sp := range r.Recent(r.Cap()) {
				if sp.Stage != StageJitter || sp.StartNs != int64(sp.Seq)*7 || sp.DurNs != int64(sp.Seq)+3 {
					err = fmt.Errorf("%+v", sp)
				}
				seqs = append(seqs, sp.Seq)
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

func TestSpanRingJSONL(t *testing.T) {
	r := NewSpanRing(64)
	r.Record(1, StageDecodeColor, 100, 200)
	r.Record(2, StageReconstruct, 300, 400)
	var sb strings.Builder
	if err := r.WriteJSONL(&sb, 10); err != nil {
		t.Fatal(err)
	}
	want := "{\"seq\":1,\"stage\":\"decode_color\",\"start_ns\":100,\"dur_ns\":200}\n" +
		"{\"seq\":2,\"stage\":\"reconstruct\",\"start_ns\":300,\"dur_ns\":400}\n"
	if sb.String() != want {
		t.Fatalf("JSONL dump:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestSpanRingDisabled(t *testing.T) {
	reg := NewRegistry(64)
	reg.SetEnabled(false)
	reg.Spans.Record(1, StageSend, 1, 1)
	if reg.Spans.Recorded() != 0 {
		t.Fatal("disabled registry recorded a span")
	}
}
