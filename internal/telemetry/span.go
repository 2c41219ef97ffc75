package telemetry

import (
	"fmt"
	"io"
	"sync/atomic"

	"livo/internal/ring"
)

// Span is one timed hop of one frame through the pipeline.
type Span struct {
	Seq     uint32 // frame sequence number
	Stage   Stage
	StartNs int64 // wall-clock start, unix nanoseconds
	DurNs   int64 // duration in nanoseconds
}

// SpanRing is a fixed-capacity lock-free ring of the most recent spans
// (storage and slot protocol: internal/ring). Wraparound overwrites the
// oldest entries; readers (the /debugz dump) never block writers.
type SpanRing struct {
	ring *ring.Ring
	on   *atomic.Bool // shared with the owning registry; nil means always on
}

// NewSpanRing creates a ring with at least capacity entries (rounded up
// to a power of two; minimum 64).
func NewSpanRing(capacity int) *SpanRing {
	return &SpanRing{ring: ring.New(capacity)}
}

// Cap returns the ring capacity.
func (r *SpanRing) Cap() int { return r.ring.Cap() }

// Recorded returns how many spans have ever been recorded (≥ Cap means
// the ring has wrapped).
func (r *SpanRing) Recorded() uint64 { return r.ring.Recorded() }

// Dropped returns how many of those were abandoned because a writer a
// full lap away owned their slot (see internal/ring).
func (r *SpanRing) Dropped() uint64 { return r.ring.Dropped() }

// Record appends one span, overwriting the oldest entry once full.
func (r *SpanRing) Record(seq uint32, stage Stage, startNs, durNs int64) {
	if r.on != nil && !r.on.Load() {
		return
	}
	r.ring.Put(uint64(seq)<<32|uint64(stage), uint64(startNs), uint64(durNs), 0)
}

// Recent returns up to n of the most recent spans, oldest first. Slots
// concurrently being rewritten are skipped.
func (r *SpanRing) Recent(n int) []Span {
	var out []Span
	r.ring.Recent(n, func(w [ring.Words]uint64) {
		out = append(out, Span{
			Seq:     uint32(w[0] >> 32),
			Stage:   Stage(w[0] & 0xff),
			StartNs: int64(w[1]),
			DurNs:   int64(w[2]),
		})
	})
	return out
}

// WriteJSONL dumps up to n recent spans as one JSON object per line,
// oldest first.
func (r *SpanRing) WriteJSONL(w io.Writer, n int) error {
	for _, sp := range r.Recent(n) {
		_, err := fmt.Fprintf(w, "{\"seq\":%d,\"stage\":%q,\"start_ns\":%d,\"dur_ns\":%d}\n",
			sp.Seq, sp.Stage.String(), sp.StartNs, sp.DurNs)
		if err != nil {
			return err
		}
	}
	return nil
}
