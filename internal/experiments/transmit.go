package experiments

import (
	"math"
	"slices"
	"sort"
	"time"

	"livo/internal/core"
	"livo/internal/netem"
	"livo/internal/session"
	"livo/internal/transport"
)

// transmitter is the replay harness's transport: the live sessions' send
// and receive cores (internal/session) joined in virtual time by the fault
// injector and the netem link. NACKs are answered one propagation delay
// later; PLIs wait for the next capture instant. Time moves from event to
// event: sends, pacer wake-ups, arrivals, NACK answers and the receive
// core's next deadline.
type transmitter struct {
	link   *netem.Link
	faults func(wire []byte) []netem.Delivery // in front of the link
	out    *session.Send
	rx     *session.Recv
	// onPair is called for every frame both streams of which decoded, at the
	// instant the pair completed, with the latest arrival of its fragments.
	onPair func(pf *core.PairedFrame, at, lastArrival float64) error

	now         float64   // virtual time; each event runs at its own
	events      []txEvent // by time, ties in the order scheduled
	err         error     // the first onPair error
	rate        float64   // the media rate the pacer spaces packets at, bits/s
	corrupt     int       // arrivals that were not media packets
	pliPending  bool      // a PLI waits for the next capture instant
	lastArrival float64   // the latest arrival of any packet
	// An outage runs from a decode failure (the seq in outageStart, -1
	// outside one) to the next completed pair.
	outages, outageStart, maxRecovery int
}

type txEvent struct {
	at  float64
	run func()
}

// newTransmitter connects recv to the far end of link, adding XOR parity to
// each stream when fec is set; the receive core plays out against playout
// and sizes its congestion estimate to the link's mean.
func newTransmitter(link *netem.Link, recv *core.Receiver, playout *transport.PlayoutEstimator, fec bool) *transmitter {
	mbps := link.FixedMbps
	if link.Trace != nil {
		mbps = link.Trace.Stats().Mean
	}
	tx := &transmitter{link: link, out: session.NewSend(false, fec), outageStart: -1}
	tx.faults = func(wire []byte) []netem.Delivery { return []netem.Delivery{{Payload: wire}} }
	tx.rx = session.NewRecv(recv, playout, transport.NewGCC(0.7*mbps*1e6, 0.02*mbps*1e6, 4*mbps*1e6))
	tx.rx.Clock = func() int64 { return simNs(tx.now) }
	tx.rx.OnFrame = tx.frame
	tx.rx.OnNack = func(req transport.NackRequest) {
		tx.schedule(tx.now+tx.link.PropDelay, func() {
			for _, w := range tx.out.Nack(req) {
				tx.transmit(w)
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

// send hands enc, stamped at, to the pacer at time at (not earlier than
// advance has reached), to be paced at twice rate.
func (tx *transmitter) send(at float64, enc *core.EncodedFrame, rate float64) {
	pkts := tx.out.Cut(enc, uint64(at*1e6))
	tx.schedule(at, func() {
		if tx.rate = rate; tx.out.Queue(pkts) {
			tx.pace()
		}
	})
}

// pace is one wake-up of the session pacer: the packets due leave, and the
// timer is set for the next.
func (tx *transmitter) pace() {
	wires, next, queued := tx.out.Due(nil, time.Time{}.Add(time.Duration(math.Round(tx.now*1e9))), tx.rate)
	for _, w := range wires {
		tx.transmit(w)
	}
	if queued {
		tx.schedule(next.Sub(time.Time{}).Seconds(), tx.pace)
	}
}

// transmit puts one datagram on the wire, into the receive core.
func (tx *transmitter) transmit(wire []byte) {
	for _, d := range tx.faults(wire) {
		if arr, dropped := tx.link.Send(tx.now, len(d.Payload)+20); !dropped {
			tx.schedule(arr+d.ExtraDelay, func() {
				tx.lastArrival = tx.now
				if !tx.rx.Media(d.Payload, tx.now, len(d.Payload)+20) {
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
		for tx.now = at; len(tx.events) > 0 && tx.events[0].at <= at; {
			run := tx.events[0].run
			tx.events = tx.events[1:]
			run()
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
		tx.maxRecovery, tx.outageStart = max(tx.maxRecovery, int(pf.Seq)-tx.outageStart), -1
	}
	if err := tx.onPair(pf, tx.now, lastArrival); err != nil && tx.err == nil {
		tx.err = err
	}
}
