package experiments

import (
	"math"
	"slices"
	"sort"
	"time"

	"livo/internal/codec/vcodec"
	"livo/internal/core"
	"livo/internal/frametrace"
	"livo/internal/netem"
	"livo/internal/transport"
)

// transmitter is the replay harness's transport: one sender's colour and
// depth streams to one receiver, in virtual time, built from the pieces the
// live sessions run. Frames are packetized, marshalled, paced by
// transport.PaceDue at twice the caller's rate and sent through the fault
// injector, if any, and the netem link. At the receiver one jitter buffer
// per stream, sharing one PlayoutEstimator, releases frames (PopOrdered);
// their Nacks reach the sender one propagation delay later and are answered
// from its history over the same link. Released frames go through the
// receive session's decode policy: decode, conceal a failure and ask for a
// key frame (PLITracker), report a completed pair. Virtual time moves from
// event to event: sends, arrivals, NACKs and the buffers' NextDeadline.
type transmitter struct {
	link   *netem.Link
	faults func(wire []byte) []netem.Delivery // in front of the link; nil for none
	fec    bool                               // add XOR parity to each stream
	gcc    *transport.GCC                     // fed from arrivals and loss reports when set
	recv   *core.Receiver
	trace  *frametrace.Ledger
	// onPair is called for every frame both streams of which decoded, at the
	// instant the pair completed, with the latest arrival of its fragments.
	onPair func(pf *core.PairedFrame, at, lastArrival float64) error

	now    float64
	events []txEvent // by time, ties in the order scheduled
	err    error     // the first onPair error

	paceQ    [][]byte  // wires waiting for the pacer; a wake-up is queued while non-empty
	paceNext time.Time // the pacer's schedule: the send time of paceQ[0]
	rate     float64   // the media rate the pacer spaces packets at, bits/s
	history  map[transport.NackRequest][]byte

	jb         [2]*transport.JitterBuffer // colour, depth
	pli        *transport.PLITracker
	pliPending bool
	arrived    map[uint32]float64 // per frame, the latest arrival of its released streams

	received, corrupt, concealed, plis int
	lastArrival                        float64
	lossRx, lossNacked                 int64
	// An outage runs from a decode failure (the seq in outageStart, -1
	// outside one) to the next completed pair.
	outages, outageStart, maxRecovery int
}

type txEvent struct {
	at  float64
	run func()
}

// newTransmitter connects recv to the far end of link; playout is the
// estimator both streams' jitter buffers share.
func newTransmitter(link *netem.Link, recv *core.Receiver, playout *transport.PlayoutEstimator) *transmitter {
	tx := &transmitter{
		link:        link,
		recv:        recv,
		history:     make(map[transport.NackRequest][]byte),
		pli:         transport.NewPLITracker(),
		arrived:     make(map[uint32]float64),
		outageStart: -1,
	}
	for i := range tx.jb {
		tx.jb[i] = transport.NewJitterBuffer()
		tx.jb[i].Playout = playout
	}
	return tx
}

func (tx *transmitter) schedule(at float64, run func()) {
	i := sort.Search(len(tx.events), func(i int) bool { return tx.events[i].at > at })
	tx.events = slices.Insert(tx.events, i, txEvent{at, run})
}

func simNs(t float64) int64 { return int64(t * 1e9) }

// send hands frame seq, stamped at, to the pacer at time at (not earlier
// than advance has reached), to be paced at twice rate.
func (tx *transmitter) send(at float64, seq uint32, color, depth *vcodec.Packet, rate float64) {
	var wires [][]byte
	for si, pkt := range []*vcodec.Packet{color, depth} {
		media := transport.Packetize(transport.StreamColor+uint8(si), seq, pkt.Key, uint64(at*1e6), pkt.Data)
		if tx.fec {
			media = append(media, transport.BuildParity(media)...)
		}
		for _, p := range media {
			w := p.Marshal()
			if !p.Parity {
				tx.history[transport.NackRequest{Stream: p.Stream, FrameSeq: p.FrameSeq, FragIndex: p.FragIndex}] = w
			}
			wires = append(wires, w)
		}
	}
	tx.schedule(at, func() {
		idle := len(tx.paceQ) == 0
		tx.paceQ, tx.rate = append(tx.paceQ, wires...), rate
		if idle {
			tx.pace(at)
		}
	})
}

// pace is one wake-up of the session pacer: the packets due leave as one
// batch, and the timer is set for the next.
func (tx *transmitter) pace(at float64) {
	n, next := transport.PaceDue(tx.paceNext, time.Time{}.Add(time.Duration(math.Round(at*1e9))), tx.rate, tx.paceQ)
	for _, w := range tx.paceQ[:n] {
		tx.transmit(at, w)
	}
	tx.paceQ, tx.paceNext = tx.paceQ[n:], next
	if len(tx.paceQ) > 0 {
		wake := next.Sub(time.Time{}).Seconds()
		tx.schedule(wake, func() { tx.pace(wake) })
	}
}

// transmit puts one packet on the wire at time at.
func (tx *transmitter) transmit(at float64, wire []byte) {
	copies := []netem.Delivery{{Payload: wire}}
	if tx.faults != nil {
		copies = tx.faults(wire)
	}
	for _, d := range copies {
		if arr, dropped := tx.link.Send(at, len(d.Payload)+20); !dropped {
			arr += d.ExtraDelay
			tx.schedule(arr, func() { tx.arrive(d.Payload, arr) })
		}
	}
}

// arrive is the receive session's datagram path.
func (tx *transmitter) arrive(wire []byte, at float64) {
	tx.lastArrival = math.Max(tx.lastArrival, at)
	p, err := transport.Unmarshal(wire)
	if err != nil {
		tx.corrupt++
		return
	}
	if p.FragIndex == 0 && !p.Parity {
		tx.trace.Stamp(frametrace.HopWire, p.Stream, p.FrameSeq, frametrace.NoSub, simNs(at))
	}
	if tx.gcc != nil {
		tx.gcc.OnArrival(float64(p.SendTimeUs)/1e6, at, len(wire)+20)
	}
	tx.received++
	if si := int(p.Stream) - int(transport.StreamColor); si >= 0 && si < len(tx.jb) {
		tx.jb[si].Push(p, at)
	}
}

// feedback is the receiver's report at a capture instant: it folds the loss
// since the last report into the congestion estimate — the NACK-ed share of
// what arrived or was NACK-ed, RecvSession.sendFeedback's definition — and
// says whether a PLI is waiting for the sender.
func (tx *transmitter) feedback() (pli bool) {
	if tx.gcc != nil {
		rxTotal, nackedTotal := int64(tx.received), tx.jb[0].Stats().Nacked+tx.jb[1].Stats().Nacked
		rx, lost := rxTotal-tx.lossRx, nackedTotal-tx.lossNacked
		tx.lossRx, tx.lossNacked = rxTotal, nackedTotal
		if rx+lost > 0 {
			tx.gcc.OnLossReport(float64(lost) / float64(rx+lost))
		}
	}
	pli, tx.pliPending = tx.pliPending, false
	return pli
}

// advance runs the transport through every event and buffer deadline up to
// and including until; advance(+Inf) runs it until nothing is in flight or
// buffered.
func (tx *transmitter) advance(until float64) error {
	for tx.err == nil {
		at, ok := 0.0, false
		if len(tx.events) > 0 {
			at, ok = tx.events[0].at, true
		}
		for _, jb := range tx.jb {
			if d, pending := transport.NextDeadline(tx.now, jb); pending && (!ok || d < at) {
				at, ok = d, true
			}
		}
		if !ok || at > until {
			return nil
		}
		tx.now = at
		for len(tx.events) > 0 && tx.events[0].at <= at {
			ev := tx.events[0]
			tx.events = tx.events[1:]
			ev.run()
		}
		for si, jb := range tx.jb {
			for _, af := range transport.PopOrdered(at, jb) {
				tx.deliver(transport.StreamColor+uint8(si), af, at)
			}
			for _, req := range jb.Nacks(at) {
				answer := at + tx.link.PropDelay
				tx.schedule(answer, func() {
					if w := tx.history[req]; w != nil {
						tx.transmit(answer, w)
					}
				})
			}
		}
	}
	return tx.err
}

// deliver decodes one released frame: a failure is concealed and starts (or
// continues) the PLI schedule; a completed pair ends it.
func (tx *transmitter) deliver(stream uint8, af transport.AssembledFrame, at float64) {
	tx.trace.Stamp(frametrace.HopJitter, stream, af.FrameSeq, frametrace.NoSub, simNs(at))
	tx.arrived[af.FrameSeq] = math.Max(tx.arrived[af.FrameSeq], af.LastArrival)
	push, hop := tx.recv.PushColor, frametrace.HopDecodeColor
	if stream == transport.StreamDepth {
		push, hop = tx.recv.PushDepth, frametrace.HopDecodeDepth
	}
	pf, err := push(&vcodec.Packet{Data: af.Data, Key: af.Key, Seq: af.FrameSeq})
	tx.trace.Stamp(hop, 0, af.FrameSeq, frametrace.NoSub, simNs(at))
	if err != nil {
		// Malformed or stale-reference data surfaces here as an error,
		// never as a panic.
		tx.concealed++
		if tx.outageStart < 0 {
			tx.outageStart, tx.outages = int(af.FrameSeq), tx.outages+1
		}
		if tx.pli.Request(at) {
			tx.plis++
			tx.pliPending = true
		}
		return
	}
	if pf == nil {
		return
	}
	tx.pli.OnKeyFrame()
	if tx.outageStart >= 0 {
		tx.maxRecovery = max(tx.maxRecovery, int(pf.Seq)-tx.outageStart)
		tx.outageStart = -1
	}
	last := tx.arrived[pf.Seq]
	delete(tx.arrived, pf.Seq)
	if err := tx.onPair(pf, at, last); err != nil && tx.err == nil {
		tx.err = err
	}
}
