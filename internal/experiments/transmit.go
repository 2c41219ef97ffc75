package experiments

import (
	"math"
	"slices"
	"sort"
	"time"

	"livo/internal/codec/vcodec"
	"livo/internal/core"
	"livo/internal/netem"
	"livo/internal/session"
	"livo/internal/transport"
)

// transmitter is the replay harness's transport: one sender's colour and
// depth streams to one receiver in virtual time, on the live sessions' code.
// Frames are paced by transport.PaceDue at twice the caller's rate through
// the fault injector, if any, and the netem link into the sessions' receive
// core (session.Recv). Its NACKs are answered from the send history one
// propagation delay later; its PLIs wait for the next capture instant. Time
// moves from event to event: sends, arrivals, NACK answers and the core's
// next deadline.
type transmitter struct {
	link   *netem.Link
	faults func(wire []byte) []netem.Delivery // in front of the link; nil for none
	fec    bool                               // add XOR parity to each stream
	rx     *session.Recv
	// onPair is called for every frame both streams of which decoded, at the
	// instant the pair completed, with the latest arrival of its fragments.
	onPair func(pf *core.PairedFrame, at, lastArrival float64) error

	now    float64
	events []txEvent // by time, ties in the order scheduled
	err    error     // the first onPair error

	paceQ    [][]byte  // wires waiting for the pacer; a wake-up is queued while non-empty
	paceNext time.Time // the pacer's schedule: the send time of paceQ[0]
	rate     float64   // the media rate the pacer spaces packets at, bits/s
	history  *session.History

	corrupt     int     // arrivals that failed to parse
	pliPending  bool    // a PLI waits for the next capture instant
	lastArrival float64 // the latest arrival of any packet
	// An outage runs from a decode failure (the seq in outageStart, -1
	// outside one) to the next completed pair.
	outages, outageStart, maxRecovery int
}

type txEvent struct {
	at  float64
	run func()
}

// newTransmitter connects recv to the far end of link; the core plays out
// against playout and sizes its congestion estimate to the link's mean.
func newTransmitter(link *netem.Link, recv *core.Receiver, playout *transport.PlayoutEstimator) *transmitter {
	mbps := link.FixedMbps
	if link.Trace != nil {
		mbps = link.Trace.Stats().Mean
	}
	tx := &transmitter{link: link, history: session.NewHistory(false), outageStart: -1}
	tx.rx = session.NewRecv(recv, playout, transport.NewGCC(0.7*mbps*1e6, 0.02*mbps*1e6, 4*mbps*1e6))
	tx.rx.Clock = func() int64 { return simNs(tx.now) }
	tx.rx.OnFrame = tx.frame
	tx.rx.OnNack = func(req transport.NackRequest) {
		answer := tx.now + tx.link.PropDelay
		tx.schedule(answer, func() {
			for _, w := range tx.history.Nack(req) {
				tx.transmit(answer, w)
			}
		})
	}
	tx.rx.OnPLI = func() { tx.pliPending = true }
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
			tx.history.Add(&p, w)
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

// transmit puts one packet on the wire, into the receive core, at time at.
func (tx *transmitter) transmit(at float64, wire []byte) {
	copies := []netem.Delivery{{Payload: wire}}
	if tx.faults != nil {
		copies = tx.faults(wire)
	}
	for _, d := range copies {
		if arr, dropped := tx.link.Send(at, len(d.Payload)+20); !dropped {
			arr += d.ExtraDelay
			tx.schedule(arr, func() {
				tx.lastArrival = math.Max(tx.lastArrival, arr)
				if !tx.rx.Media(d.Payload, arr, len(d.Payload)+20) {
					tx.corrupt++
				}
			})
		}
	}
}

// feedback is the receiver's report at a capture instant: the congestion
// estimate, after the loss since the last one, and whether a PLI waits.
func (tx *transmitter) feedback() (rate float64, pli bool) {
	pli, tx.pliPending = tx.pliPending, false
	return tx.rx.Report(), pli
}

// advance runs the transport through every event and buffer deadline up to
// and including until; advance(+Inf) runs it until nothing is in flight or
// buffered.
func (tx *transmitter) advance(until float64) error {
	for {
		// A second drain at the same instant releases and requests nothing.
		at, ok := tx.rx.Drain(tx.now)
		if tx.err != nil {
			return tx.err
		}
		if len(tx.events) > 0 && (!ok || tx.events[0].at < at) {
			at, ok = tx.events[0].at, true
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
	}
}

// frame is the core's frame hand-over: a concealed frame opens an outage, a
// completed pair closes it and goes to onPair.
func (tx *transmitter) frame(seq uint32, pf *core.PairedFrame, concealed bool, lastArrival float64) {
	if concealed {
		if tx.outageStart < 0 {
			tx.outageStart, tx.outages = int(seq), tx.outages+1
		}
		return
	}
	if tx.outageStart >= 0 {
		tx.maxRecovery = max(tx.maxRecovery, int(pf.Seq)-tx.outageStart)
		tx.outageStart = -1
	}
	if err := tx.onPair(pf, tx.now, lastArrival); err != nil && tx.err == nil {
		tx.err = err
	}
}
