// Package frametrace is a cross-process frame lifecycle ledger: every
// layer a frame passes through — capture, cull, tile, encode, packetize,
// relay ingest, shard route, subscriber queue, wire, jitter buffer,
// decode, reconstruct — stamps the frame's arrival at that hop into a
// fixed-size lock-free ring, and a collector merges the sender, relay, and
// receiver ledgers into one timeline per frame. The decomposition report
// built from those timelines (per-stage p50/p99, stage sums reconciled
// against end-to-end) is the latency breakdown the paper's evaluation
// hinges on, and the only per-frame stage timer in the system: each stage
// boundary is one stamp.
//
// The hot path is allocation-free and never blocks, and a nil *Ledger is
// a no-op so call sites need no enable branches of their own. Storage is
// internal/ring, shared with EventRing: exclusive slot ownership, a record
// dropped (and counted) rather than torn when two writers a full lap
// apart collide.
package frametrace

import (
	"time"

	"livo/internal/ring"
)

// Hop identifies one pipeline layer a frame passes through, in pipeline
// order. Color and depth encode/decode are separate hops because they
// run concurrently; the merge takes the later of the two.
type Hop uint8

const (
	HopCapture Hop = iota
	HopCull        // views culled straight into the tiled color and depth frames (non-culling variants copy them)
	HopTile        // sequence markers stamped and the color frame converted to the codec's YCbCr
	HopEncodeColor
	HopEncodeDepth
	HopPacketize
	HopRelayIngest // relay read a frame's first fragment off the socket
	HopShardRoute  // ingest shard reached this subscriber in its fan-out
	HopSubEnqueue  // admitted to one subscriber's queue
	HopSubDrain    // popped from that queue by a writer worker
	HopWire        // receiver read the first fragment off the socket
	HopJitter      // jitter buffer released the assembled frame
	HopDecodeColor
	HopDecodeDepth
	HopReconstruct
	NumHops int = iota
)

var hopNames = [NumHops]string{
	"capture", "cull", "tile", "encode_color", "encode_depth", "packetize",
	"relay_ingest", "shard_route", "sub_enqueue", "sub_drain",
	"wire", "jitter", "decode_color", "decode_depth", "reconstruct",
}

func (h Hop) String() string {
	if int(h) < NumHops {
		return hopNames[h]
	}
	return "hop?"
}

// Stamp records that one frame reached one hop at one instant.
type Stamp struct {
	Seq    uint32 // frame sequence number
	Hop    Hop
	Stream uint8 // transport stream id; 0 when the hop is stream-agnostic
	Sub    int32 // subscriber id for per-subscriber hops; -1 otherwise
	TimeNs int64 // ledger-local clock, nanoseconds
}

// NoSub marks a stamp that is not tied to one subscriber.
const NoSub int32 = -1

// Ledger is one process's fixed-capacity ring of hop stamps. A nil
// *Ledger is valid and ignores all stamps, so tracing is enabled by
// plumbing a ledger in and disabled by leaving it nil.
type Ledger struct {
	ring *ring.Ring
}

// NewLedger creates a ledger with at least capacity slots (rounded up to
// a power of two; minimum 64).
func NewLedger(capacity int) *Ledger {
	return &Ledger{ring: ring.New(capacity)}
}

// Cap returns the ring capacity; 0 for a nil ledger.
func (l *Ledger) Cap() int {
	if l == nil {
		return 0
	}
	return l.ring.Cap()
}

// Recorded returns how many stamps have ever been recorded (≥ Cap means
// the ring has wrapped).
func (l *Ledger) Recorded() uint64 {
	if l == nil {
		return 0
	}
	return l.ring.Recorded()
}

// Dropped returns how many of those were abandoned because a writer a
// full lap away owned their slot (see internal/ring); 0 for a nil ledger.
func (l *Ledger) Dropped() uint64 {
	if l == nil {
		return 0
	}
	return l.ring.Dropped()
}

// Stamp records that frame seq reached hop at tNs on the ledger's clock.
// Safe for concurrent use; free of allocations; a no-op on nil.
func (l *Ledger) Stamp(hop Hop, stream uint8, seq uint32, sub int32, tNs int64) {
	if l == nil {
		return
	}
	l.ring.Put(uint64(seq)<<32|uint64(hop)<<8|uint64(stream), uint64(int64(sub)), uint64(tNs), 0)
}

// StampNow is Stamp at time.Now().UnixNano() — the common case for
// wall-clock processes. Harnesses running on a simulated clock pass
// their own time to Stamp instead.
func (l *Ledger) StampNow(hop Hop, stream uint8, seq uint32, sub int32) {
	if l == nil {
		return
	}
	l.Stamp(hop, stream, seq, sub, time.Now().UnixNano())
}

// Recent returns up to n of the most recent stamps, oldest first. Slots
// concurrently being rewritten are skipped.
func (l *Ledger) Recent(n int) []Stamp {
	if l == nil {
		return nil
	}
	var out []Stamp
	l.ring.Recent(n, func(w [ring.Words]uint64) {
		out = append(out, Stamp{
			Seq:    uint32(w[0] >> 32),
			Hop:    Hop(w[0] >> 8 & 0xff),
			Stream: uint8(w[0] & 0xff),
			Sub:    int32(w[1]),
			TimeNs: int64(w[2]),
		})
	})
	return out
}
