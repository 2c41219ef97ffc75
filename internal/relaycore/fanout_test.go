package relaycore

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"livo/internal/frametrace"
	"livo/internal/transport"
)

// discardWriter is the cheapest possible BatchWriter: it counts and drops,
// so what the fan-out tests below measure is the router, not the sink.
type discardWriter struct{ pkts atomic.Int64 }

func (w *discardWriter) WriteTo(p []byte, _ net.Addr) (int, error) {
	w.pkts.Add(1)
	return len(p), nil
}

func (w *discardWriter) WriteBatch(ps [][]byte, _ net.Addr) (int, error) {
	w.pkts.Add(int64(len(ps)))
	return len(ps), nil
}

// fanoutFrags is one frame's fragment count per rung: a ~16 KB frame at the
// transport MTU, the requantized rung about half of it, the quarter rung a
// quarter. At 33 ms a frame that is ≈ 3.9 / 2.0 / 1.0 Mb/s on the wire.
var fanoutFrags = [3]uint16{16, 8, 4}

// fanoutClassBps are three REMBs that each afford exactly one of those
// rungs under the rung policy's 0.9 headroom.
var fanoutClassBps = [3]float64{8e6, 3e6, 1.5e6}

const fanoutGOP = 30

// fanoutRig routes paced frames into a router on a fake clock from wire
// templates restamped in place, so a steady-state frame costs the rig
// itself no allocation.
type fanoutRig struct {
	r     *Router
	out   *discardWriter
	clk   *fakeClock
	tmpl  [][]byte // one per rung
	subs  []net.Addr
	rembs [][]byte // per subscriber; nil without a ladder
	seq   uint32
}

func newFanoutRig(subs, rungs int, cfg Config) *fanoutRig {
	g := &fanoutRig{out: &discardWriter{}, clk: &fakeClock{}}
	g.clk.Advance(time.Second)
	cfg.now = g.clk.Now
	g.r = NewRouter(g.out, senderAddr(), cfg)
	for rung := 0; rung < rungs; rung++ {
		g.tmpl = append(g.tmpl, mediaWireRung(transport.StreamColor, 0, 0, fanoutFrags[rung], false, uint8(rung), make([]byte, 1000)))
	}
	for i := 0; i < subs; i++ {
		g.subs = append(g.subs, udp(i+1))
		g.r.Subscribe(g.subs[i])
		if rungs > 1 {
			g.rembs = append(g.rembs, transport.AppendREMB(nil, fanoutClassBps[i%len(fanoutClassBps)]))
		}
	}
	return g
}

// frame routes one frame on every rung (plus, with a ladder, each
// subscriber's REMB), advances the clock one frame interval, and returns
// the media packets routed.
func (g *fanoutRig) frame() (pkts int) {
	pool := g.r.Pool()
	for rung, w := range g.tmpl {
		w[2], w[3], w[4], w[5] = byte(g.seq>>24), byte(g.seq>>16), byte(g.seq>>8), byte(g.seq)
		w[10] &^= transport.FlagKey
		if g.seq%fanoutGOP == 0 {
			w[10] |= transport.FlagKey
		}
		for f := uint16(0); f < fanoutFrags[rung]; f++ {
			w[6], w[7] = byte(f>>8), byte(f)
			g.r.RouteMedia(pool.Load(w))
			pkts++
		}
	}
	g.seq++
	g.clk.Advance(33 * time.Millisecond)
	for i, remb := range g.rembs {
		g.r.RouteFeedback(remb, g.subs[i])
	}
	return pkts
}

// maxAllocsPerPacket is the routed hot path's budget: it is designed for
// zero, and the retransmission cache's index bookkeeping is allowed at
// most one. Anything above means per-packet work leaked onto the heap.
const maxAllocsPerPacket = 1.0

// TestRouterFanoutAllocs holds the fan-out hot path to its allocation
// budget at 64 subscribers in the three shapes it runs in: one rung, a
// 3-rung ladder with subscribers spread over three REMB classes, and one
// rung with the frame ledger and the event ring armed.
func TestRouterFanoutAllocs(t *testing.T) {
	led := frametrace.NewLedger(1 << 12)
	for _, tc := range []struct {
		name  string
		rungs int
		trace *frametrace.Ledger
	}{
		{"plain", 1, nil},
		{"ladder", 3, nil},
		{"traced", 1, led},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			if tc.trace != nil {
				cfg.Trace, cfg.Events = tc.trace, frametrace.NewEventRing(1<<10)
			}
			g := newFanoutRig(64, tc.rungs, cfg)
			defer g.r.Close()
			step := func() int {
				n := g.frame()
				if !g.r.WaitIdle(5 * time.Second) {
					t.Fatal("router did not drain")
				}
				return n
			}
			// Warm up past pool growth, retx-cache fill and (with a ladder)
			// every class's downswitch at a key frame.
			for i := 0; i < 4*fanoutGOP; i++ {
				step()
			}
			var pkts int
			allocs := testing.AllocsPerRun(2*fanoutGOP, func() { pkts = step() })
			per := allocs / float64(pkts)
			t.Logf("%.0f allocs per %d-packet frame = %.2f allocs/packet", allocs, pkts, per)
			if per > maxAllocsPerPacket {
				t.Fatalf("%.0f allocs per %d-packet frame = %.2f allocs/packet, budget %.1f", allocs, pkts, per, maxAllocsPerPacket)
			}
			st := g.r.Stats()
			if st.Drops != 0 || g.out.pkts.Load() == 0 {
				t.Fatalf("drops = %d, delivered = %d: want a loss-free fan-out", st.Drops, g.out.pkts.Load())
			}
			if tc.rungs == 3 && (st.RungSubscribers[0] == 0 || st.RungSubscribers[1] == 0 || st.RungSubscribers[2] == 0) {
				t.Fatalf("RungSubscribers = %v: the ladder row measured an unoccupied rung", st.RungSubscribers)
			}
			if tc.trace != nil && tc.trace.Recorded() == 0 {
				t.Fatal("traced row recorded no stamps: it measured a disabled ledger")
			}
		})
	}
}

// BenchmarkRouterFanout is the fan-out scaling sweep: one op is one
// 16-fragment frame routed to every subscriber. Run it across core counts
// with `go test -bench RouterFanout -cpu 1,2,4 ./internal/relaycore`.
func BenchmarkRouterFanout(b *testing.B) {
	for _, subs := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			g := newFanoutRig(subs, 1, testConfig())
			defer g.r.Close()
			drain := func() {
				if !g.r.WaitIdle(30 * time.Second) {
					b.Fatal("router did not drain")
				}
			}
			for i := 0; i < 4*fanoutGOP; i++ { // pool growth, retx-cache fill
				g.frame()
				if i%fanoutGOP == fanoutGOP-1 {
					drain()
				}
			}
			warm := g.out.pkts.Load()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.frame()
				// Queues hold 1024 packets; a free-running producer would
				// measure the drop policy instead of the fan-out.
				if i%fanoutGOP == fanoutGOP-1 {
					drain()
				}
			}
			drain()
			b.StopTimer()
			st := g.r.Stats()
			b.ReportMetric(float64(g.out.pkts.Load()-warm)/b.Elapsed().Seconds(), "delivered/s")
			b.ReportMetric(float64(st.Drops), "drops")
		})
	}
}
