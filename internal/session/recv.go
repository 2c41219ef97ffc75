// Package session holds the sans-I/O halves of a LiVo session: the send core
// (encoded frames to paced datagrams, NACK answers) and the receive core
// (datagrams to frames to show and feedback to send; §3.1, §A.1). Neither
// owns a socket, a goroutine, a lock or a clock, so the live sessions (the
// root package) and the replay harness (internal/experiments) run the same
// code, one on the wall clock and one in virtual time.
package session

import (
	"sync/atomic"
	"time"

	"livo/internal/codec/vcodec"
	"livo/internal/core"
	"livo/internal/frametrace"
	"livo/internal/transport"
)

// Recv is the receive core of one session: jitter buffers, NACKs, decode,
// concealment, the PLI schedule and the loss report (§A.1). The caller
// serialises Media, Drain and Report; the counters and StreamStats may be
// read from any goroutine.
type Recv struct {
	receiver *core.Receiver
	// jb holds one jitter buffer per (stream, rung), all on Playout (DESIGN.md
	// §5). It is never written after NewRecv, so StreamStats needs no lock.
	jb      [2][transport.MaxRungs]*transport.JitterBuffer
	Playout *transport.PlayoutEstimator
	gcc     *transport.GCC
	pli     *transport.PLITracker

	// frames is per-frame state by seq modulo its length: the latest arrival
	// of its released streams, and whether a failed stream concealed it.
	frames [64]struct {
		seq         uint32
		lastArrival float64
		concealed   bool
	}
	lossRx, lossNacked int64 // the totals at the last Report

	// Trace, when non-nil, receives the wire, jitter and decode hop stamps,
	// at the times Clock returns (nanoseconds; the wall clock by default).
	Trace *frametrace.Ledger
	Clock func() int64
	// OnFrame hands over each frame to show: a decoded pair, lastArrival the
	// latest arrival of its two streams; or, concealed, the last good pair
	// (nil before the first) in place of frame seq, which failed to decode.
	OnFrame func(seq uint32, pf *core.PairedFrame, concealed bool, lastArrival float64)
	// OnNack sends a NACK for one missing fragment.
	OnNack func(transport.NackRequest)
	// OnPLI sends a key-frame request.
	OnPLI func()

	// Received counts media packets accepted, Decoded pairs delivered,
	// Concealed frames that failed to decode (once each), PLIs key-frame
	// requests sent.
	Received, Decoded, Concealed, PLIs atomic.Int64
}

// NewRecv returns a core that decodes with receiver, plays out against
// playout and reports to gcc. Set the callbacks before the first Drain.
func NewRecv(receiver *core.Receiver, playout *transport.PlayoutEstimator, gcc *transport.GCC) *Recv {
	r := &Recv{
		receiver: receiver,
		Playout:  playout,
		gcc:      gcc,
		pli:      transport.NewPLITracker(),
		Clock:    func() int64 { return time.Now().UnixNano() },
	}
	// Two encodings of one frame seq must never share a reassembly slot, and
	// a relay rung switch interleaves both rungs around the key boundary.
	for si := range r.jb {
		for rung := range r.jb[si] {
			jb := transport.NewJitterBuffer()
			jb.Playout = r.Playout
			r.jb[si][rung] = jb
		}
	}
	return r
}

func (r *Recv) stamp(hop frametrace.Hop, stream uint8, seq uint32) {
	if r.Trace != nil {
		r.Trace.Stamp(hop, stream, seq, frametrace.NoSub, r.Clock())
	}
}

// Media ingests a datagram that arrived at now, size bytes on the wire, and
// reports whether it was a media packet: the MediaMagic prefix that tells
// media from feedback on a shared socket, then a packet that parses.
func (r *Recv) Media(datagram []byte, now float64, size int) bool {
	if len(datagram) == 0 || datagram[0] != transport.MediaMagic {
		return false
	}
	p, err := transport.Unmarshal(datagram[1:])
	if err != nil {
		return false
	}
	if p.FragIndex == 0 && !p.Parity {
		r.stamp(frametrace.HopWire, p.Stream, p.FrameSeq)
	}
	r.gcc.OnArrival(float64(p.SendTimeUs)/1e6, now, size)
	r.Received.Add(1)
	if si := int(p.Stream) - int(transport.StreamColor); si >= 0 && si < len(r.jb) && int(p.Rung) < len(r.jb[si]) {
		r.jb[si][p.Rung].Push(p, now)
	}
	return true
}

// Drain delivers the frames due, in sequence order across a stream's rungs,
// and sends the NACKs due. It returns the buffers' next deadline, if any.
func (r *Recv) Drain(now float64) (next float64, pending bool) {
	for si := range r.jb {
		stream := transport.StreamColor + uint8(si)
		rungs := r.jb[si][:]
		for _, af := range transport.PopOrdered(now, rungs...) {
			r.deliver(stream, af, now)
		}
		for _, jb := range rungs {
			for _, nack := range jb.Nacks(now) {
				r.OnNack(nack)
			}
		}
		if at, ok := transport.NextDeadline(now, rungs...); ok && (!pending || at < next) {
			next, pending = at, true
		}
	}
	return next, pending
}

// deliver decodes one released frame. A failure is concealed and starts (or
// continues) the PLI schedule, a decoded key frame ends it.
func (r *Recv) deliver(stream uint8, af transport.AssembledFrame, now float64) {
	r.stamp(frametrace.HopJitter, stream, af.FrameSeq)
	f := &r.frames[af.FrameSeq%uint32(len(r.frames))]
	if f.seq != af.FrameSeq {
		f.seq, f.lastArrival, f.concealed = af.FrameSeq, 0, false
	}
	f.lastArrival = max(f.lastArrival, af.LastArrival)
	push, hop := r.receiver.PushColor, frametrace.HopDecodeColor
	if stream == transport.StreamDepth {
		push, hop = r.receiver.PushDepth, frametrace.HopDecodeDepth
	}
	pf, err := push(&vcodec.Packet{Data: af.Data, Key: af.Key, Seq: af.FrameSeq, Rung: af.Rung})
	if err != nil {
		// A skipped frame left the reference stale, or the payload was
		// corrupted. The tracker re-sends the PLI until the IDR lands but
		// suppresses per-frame storms (§A.1).
		if !f.concealed {
			f.concealed = true
			r.Concealed.Add(1)
			r.OnFrame(af.FrameSeq, r.receiver.LastGood(), true, 0)
		}
		if r.pli.Request(now) {
			r.PLIs.Add(1)
			r.OnPLI()
		}
		return
	}
	r.stamp(hop, 0, af.FrameSeq)
	if af.Key {
		r.pli.OnKeyFrame() // the recovery IDR decoded: the PLI cycle is over
	}
	if pf == nil {
		return
	}
	r.Decoded.Add(1)
	last := 0.0
	if f := r.frames[pf.Seq%uint32(len(r.frames))]; f.seq == pf.Seq {
		last = f.lastArrival
	}
	r.OnFrame(pf.Seq, pf, false, last)
}

// Report folds the NACK-ed share of what arrived or was NACK-ed since the
// last report into the congestion estimate and returns the rate to advertise.
func (r *Recv) Report() float64 {
	rxTotal, nackedTotal := r.Received.Load(), r.Nacked()
	rx, lost := rxTotal-r.lossRx, nackedTotal-r.lossNacked
	r.lossRx, r.lossNacked = rxTotal, nackedTotal
	if rx+lost > 0 {
		r.gcc.OnLossReport(float64(lost) / float64(rx+lost))
	}
	return r.gcc.Rate()
}

// StreamStats sums stream si's (0 colour, 1 depth) jitter buffers over its
// rungs: a ladder subscriber's frames sit in its rung's buffer.
func (r *Recv) StreamStats(si int) (sum transport.Stats) {
	for _, jb := range r.jb[si] {
		st := jb.Stats()
		sum.Pending += st.Pending
		sum.Delivered += st.Delivered
		sum.Skipped += st.Skipped
		sum.Nacked += st.Nacked
		sum.FECRecovered += st.FECRecovered
	}
	return sum
}

// Nacked counts the NACKs sent, re-requests included.
func (r *Recv) Nacked() int64 { return r.StreamStats(0).Nacked + r.StreamStats(1).Nacked }
