package transport

import (
	"sort"
	"sync/atomic"
)

// AssembledFrame is a fully reassembled encoded frame leaving the jitter
// buffer.
type AssembledFrame struct {
	Stream       uint8
	FrameSeq     uint32
	Key          bool
	Rung         uint8 // quality-ladder rung the frame arrived on
	Data         []byte
	FirstArrival float64 // arrival of the first fragment
	LastArrival  float64
}

// NackRequest identifies a missing fragment for retransmission (§A.1:
// LiVo enables negative acknowledgments).
type NackRequest struct {
	Stream    uint8
	FrameSeq  uint32
	FragIndex uint16
}

// JitterBuffer reassembles one stream's packets into frames and releases
// them in sequence order, each at the playout time its PlayoutEstimator sets:
// a complete, in-order frame stamped ts is due at ts + path floor + measured
// jitter target, and never later than MaxPlayoutDelay after it completed. A
// frame with a hole blocks the frames behind it while its fragments are
// NACK-ed; past the repair deadline it is dropped (LiVo "simply skips the
// frame", §A.1).
type JitterBuffer struct {
	// Playout sets the playout target and carries the repair round-trip
	// estimate. NewJitterBuffer gives the buffer its own; a session points all
	// its buffers at one, so both streams of a frame are released against the
	// same sender timestamp and the same target.
	Playout *PlayoutEstimator
	// skipAfter is how long past MaxPlayoutDelay (measured from its first
	// fragment) an incomplete frame may block delivery before being skipped;
	// it is given up sooner once repairRounds requests have gone unanswered.
	skipAfter float64
	// nackAfter is how long a frame may go without a new fragment, while
	// incomplete, before its missing fragments are NACK-ed.
	nackAfter float64
	// renackAfter is the longest a NACK may stay unanswered before the
	// still-missing fragments are requested again — a lost retransmission
	// (or a lost NACK) would otherwise leave the frame waiting for the skip
	// deadline. Once the repair round trip is known the re-request goes out
	// as soon as the answer is overdue (Playout.RepairTimeout).
	renackAfter float64

	frames  map[uint32]*partialFrame
	nextSeq uint32
	hasNext bool

	// Occupancy and recovery counters are atomics: the buffer itself is
	// single-goroutine (the session loops, under their lock), but session
	// Stats() snapshots and the telemetry exporter read them from other
	// goroutines.
	skipped      atomic.Int64
	fecRecovered atomic.Int64
	nackedTotal  atomic.Int64
	pending      atomic.Int64
	delivered    atomic.Int64
}

// repairRounds is how many requests (the NACK and its re-requests) a missing
// fragment gets; once the round trip is known, the frame is given up when the
// last has gone unanswered. A retransmission travels apart from the burst
// that took the original, so three in a row are lost to a 2% path a few times
// in a million, and every further round holds the frames behind it.
const repairRounds = 3

// Stats is a point-in-time snapshot of one jitter buffer's occupancy and
// recovery counters (readable from any goroutine).
type Stats struct {
	// Pending is the current buffer occupancy in frames (complete+partial).
	Pending int
	// Delivered counts frames released to the decoder.
	Delivered int64
	// Skipped counts incomplete frames dropped past the skip deadline.
	Skipped int64
	// Nacked counts fragments NACK-ed for retransmission.
	Nacked int64
	// FECRecovered counts fragments repaired locally by XOR parity.
	FECRecovered int64
}

// Stats returns the buffer's current counters.
func (jb *JitterBuffer) Stats() Stats {
	return Stats{
		Pending:      int(jb.pending.Load()),
		Delivered:    jb.delivered.Load(),
		Skipped:      jb.skipped.Load(),
		Nacked:       jb.nackedTotal.Load(),
		FECRecovered: jb.fecRecovered.Load(),
	}
}

type partialFrame struct {
	stream       uint8
	key          bool
	rung         uint8
	count        uint16
	got          map[uint16][]byte
	parity       map[uint16][]byte // parity payloads by group first-index
	sendTime     float64           // sender's timestamp, seconds on the sender's clock
	firstArrival float64
	lastArrival  float64
	// All of a frame's missing fragments are requested together, so NACK
	// state is per frame: when the first and the latest round went out, and
	// how many there have been.
	firstNack, lastNack float64
	nackRounds          int
}

func (f *partialFrame) complete() bool { return len(f.got) == int(f.count) }

// NewJitterBuffer creates a buffer with its own playout estimator.
func NewJitterBuffer() *JitterBuffer {
	return &JitterBuffer{
		Playout:     &PlayoutEstimator{},
		skipAfter:   0.120,
		nackAfter:   0.015,
		renackAfter: 0.250,
		frames:      make(map[uint32]*partialFrame),
	}
}

// Push ingests one packet with its arrival time (seconds). Duplicate
// fragments (e.g. NACK retransmissions racing the original) are ignored.
func (jb *JitterBuffer) Push(p Packet, arrival float64) {
	if jb.hasNext && seqBefore(p.FrameSeq, jb.nextSeq) {
		return // frame already delivered or skipped
	}
	f := jb.frames[p.FrameSeq]
	if f == nil {
		f = &partialFrame{
			stream:       p.Stream,
			key:          p.Key,
			rung:         p.Rung,
			count:        p.FragCount,
			got:          make(map[uint16][]byte),
			parity:       make(map[uint16][]byte),
			sendTime:     float64(p.SendTimeUs) / 1e6,
			firstArrival: arrival,
		}
		jb.frames[p.FrameSeq] = f
		jb.pending.Store(int64(len(jb.frames)))
	}
	if p.FragCount != f.count || p.FragIndex >= f.count {
		// A corrupted header disagreeing with the frame's established
		// fragment count would poison reassembly; drop the fragment and let
		// NACK/FEC recover the real one.
		return
	}
	wasComplete := f.complete() // only a parity packet gets past a complete frame's duplicate check
	if p.Parity {
		f.parity[p.FragIndex] = p.Payload
	} else {
		if _, dup := f.got[p.FragIndex]; dup {
			return
		}
		f.got[p.FragIndex] = p.Payload
		if f.nackRounds == 1 {
			// The fragment was missing when the frame's one request went out,
			// so this is its answer (after a re-request it could be either
			// round's, and says nothing).
			jb.Playout.ObserveRTT(arrival - f.lastNack)
		}
	}
	if arrival > f.lastArrival {
		f.lastArrival = arrival
	}
	if arrival < f.firstArrival {
		f.firstArrival = arrival
	}
	if wasComplete {
		return
	}
	jb.tryFEC(f)
	if f.complete() && f.nackRounds == 0 {
		jb.Playout.Observe(f.sendTime, f.lastArrival)
	}
}

// tryFEC repairs single losses in parity-protected fragment groups —
// recovery happens locally, without the NACK round trip (fec.go).
func (jb *JitterBuffer) tryFEC(f *partialFrame) {
	if f.complete() || len(f.parity) == 0 {
		return
	}
	for firstIdx, pp := range f.parity {
		idx, payload, err := RecoverWithParity(f.got, pp, firstIdx)
		if err != nil {
			continue
		}
		f.got[idx] = payload
		jb.fecRecovered.Add(1)
	}
}

// seqBefore reports a < b with wraparound.
func seqBefore(a, b uint32) bool { return int32(a-b) < 0 }

// Pop returns all frames ready for delivery at time now, in sequence
// order: PopOrdered over this buffer alone.
func (jb *JitterBuffer) Pop(now float64) []AssembledFrame { return PopOrdered(now, jb) }

// PopOrdered releases the frames ready at time now from bufs — the buffers
// of one stream's rungs — in frame-sequence order across all of them, as if
// they were one buffer: around a relay rung switch the old rung's last frames
// leave before the new rung's key frame, and a hole in one holds back the
// other. The lowest-sequence pending frame is released once it is complete
// and due; while it is incomplete everything behind it waits, until its
// repair deadline passes and it is skipped.
func PopOrdered(now float64, bufs ...*JitterBuffer) []AssembledFrame {
	var out []AssembledFrame
	for {
		jb, seq, f := head(now, bufs)
		if f == nil || !f.complete() || now < jb.due(f) {
			return out
		}
		out = append(out, AssembledFrame{
			Stream:       f.stream,
			FrameSeq:     seq,
			Key:          f.key,
			Rung:         f.rung,
			Data:         assemble(f),
			FirstArrival: f.firstArrival,
			LastArrival:  f.lastArrival,
		})
		jb.release(seq)
		jb.delivered.Add(1)
		for _, other := range bufs {
			if other != jb {
				other.passed(seq)
			}
		}
	}
}

// NextDeadline returns the earliest time at or after now at which
// PopOrdered or Nacks over bufs will have something new to do — the head
// frame's playout time or repair deadline, or any incomplete frame's next
// NACK round — so a caller that has just drained at now can sleep until
// then. ok is false when nothing is pending that time alone would change.
func NextDeadline(now float64, bufs ...*JitterBuffer) (t float64, ok bool) {
	earlier := func(at float64) {
		if !ok || at < t {
			t, ok = at, true
		}
	}
	if jb, _, f := head(now, bufs); f != nil {
		if f.complete() {
			earlier(jb.due(f))
		} else {
			earlier(jb.repairDeadline(f))
		}
	}
	for _, jb := range bufs {
		for _, f := range jb.frames {
			if at, pending := jb.nackDue(f); pending {
				earlier(at)
			}
		}
	}
	if ok && t < now {
		t = now
	}
	return t, ok
}

// head skips the incomplete frames whose repair deadline has passed and
// returns the lowest-sequence frame pending across bufs with its buffer (the
// lower rung on a tie), or a nil frame when all are empty.
func head(now float64, bufs []*JitterBuffer) (owner *JitterBuffer, seq uint32, f *partialFrame) {
	for _, jb := range bufs {
		s, c, ok := jb.oldest()
		for ok && !c.complete() && now >= jb.repairDeadline(c) {
			jb.release(s)
			jb.skipped.Add(1)
			s, c, ok = jb.oldest()
		}
		if ok && (f == nil || seqBefore(s, seq)) {
			owner, seq, f = jb, s, c
		}
	}
	return owner, seq, f
}

// due is when a complete frame may be played: the estimator's schedule for
// its sender timestamp, but not before it completed and at most
// MaxPlayoutDelay after that.
func (jb *JitterBuffer) due(f *partialFrame) float64 {
	at, ok := jb.Playout.Due(f.sendTime)
	if !ok || at < f.lastArrival {
		return f.lastArrival
	}
	if latest := f.lastArrival + MaxPlayoutDelay; at > latest {
		return latest
	}
	return at
}

// retryAfter is how long a NACK round waits for its answer before the next
// one: the measured repair timeout, between nackAfter and renackAfter.
func (jb *JitterBuffer) retryAfter() float64 {
	d := jb.renackAfter
	if rto, measured := jb.Playout.RepairTimeout(); measured && rto < d {
		d = rto
		if d < jb.nackAfter {
			d = jb.nackAfter
		}
	}
	return d
}

// repairDeadline is when an incomplete frame stops blocking delivery:
// MaxPlayoutDelay + skipAfter past its first fragment, or — if that is sooner,
// which takes a measured round trip well under renackAfter — the moment its
// repairRounds-th request has gone unanswered.
func (jb *JitterBuffer) repairDeadline(f *partialFrame) float64 {
	at := f.firstArrival + MaxPlayoutDelay + jb.skipAfter
	if f.nackRounds > 0 {
		if lost := f.firstNack + repairRounds*jb.retryAfter(); lost < at {
			at = lost
		}
	}
	return at
}

// nackDue is when f's next NACK round is due; pending is false when f is
// complete or has had its last round.
func (jb *JitterBuffer) nackDue(f *partialFrame) (at float64, pending bool) {
	if f.complete() || f.nackRounds >= repairRounds {
		return 0, false
	}
	at = f.lastArrival + jb.nackAfter
	if f.nackRounds == 0 {
		return at, true
	}
	if again := f.lastNack + jb.retryAfter(); again > at {
		at = again
	}
	return at, true
}

// release retires a delivered or skipped frame.
func (jb *JitterBuffer) release(seq uint32) {
	delete(jb.frames, seq)
	jb.pending.Store(int64(len(jb.frames)))
	jb.nextSeq = seq + 1
	jb.hasNext = true
}

// passed tells the buffer that frame seq has been played from another rung
// of its stream. Being the lowest pending anywhere, it left nothing older
// here; what arrives for it or before it from now on is late, as it would be
// in one buffer, and this rung's copy of it (a receiver fed every rung
// directly has one) is surplus.
func (jb *JitterBuffer) passed(seq uint32) {
	if _, dup := jb.frames[seq]; dup || !jb.hasNext || seqBefore(jb.nextSeq, seq+1) {
		jb.release(seq)
	}
}

// oldest returns the lowest-sequence pending frame.
func (jb *JitterBuffer) oldest() (uint32, *partialFrame, bool) {
	var best uint32
	var bf *partialFrame
	for seq, f := range jb.frames {
		if bf == nil || seqBefore(seq, best) {
			best, bf = seq, f
		}
	}
	return best, bf, bf != nil
}

func assemble(f *partialFrame) []byte {
	idxs := make([]int, 0, len(f.got))
	for i := range f.got {
		idxs = append(idxs, int(i))
	}
	sort.Ints(idxs)
	var data []byte
	for _, i := range idxs {
		data = append(data, f.got[uint16(i)]...)
	}
	return data
}

// Nacks returns fragments that should be retransmitted: the missing pieces
// of every incomplete frame that has gone nackAfter without a new fragment.
// Fragments still missing when the answer is overdue (retryAfter) are
// requested again — a lost retransmission must not wait out the repair
// deadline.
func (jb *JitterBuffer) Nacks(now float64) []NackRequest {
	var out []NackRequest
	for seq, f := range jb.frames {
		if at, pending := jb.nackDue(f); !pending || now < at {
			continue
		}
		if f.nackRounds == 0 {
			f.firstNack = now
		}
		f.lastNack = now
		f.nackRounds++
		for i := uint16(0); i < f.count; i++ {
			if _, ok := f.got[i]; ok {
				continue
			}
			jb.nackedTotal.Add(1)
			out = append(out, NackRequest{Stream: f.stream, FrameSeq: seq, FragIndex: i})
		}
	}
	if len(out) < 2 {
		return out
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].FrameSeq != out[b].FrameSeq {
			return seqBefore(out[a].FrameSeq, out[b].FrameSeq)
		}
		return out[a].FragIndex < out[b].FragIndex
	})
	return out
}
