package relaycore

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"livo/internal/telemetry"
	"livo/internal/transport"
)

// metric reads one series from a WriteMetrics pass, the path a scraper of
// /debugz/metrics takes.
func metric(t *testing.T, reg *telemetry.Registry, name string) float64 {
	t.Helper()
	var sb strings.Builder
	reg.WriteMetrics(&sb)
	for _, line := range strings.Split(sb.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("no series %s", name)
	return 0
}

// TestGaugesFreshWithoutStats: the cache-occupancy, queue-depth and
// per-rung gauges read the router at scrape time, so a scraper that never
// calls Stats() (nor has anyone else) sees traffic land in them.
func TestGaugesFreshWithoutStats(t *testing.T) {
	clk := &fakeClock{}
	stalled, idle := udp(1), udp(2)
	w := &stallWriter{rec: newRecWriter(), stalled: stalled.String(), release: make(chan struct{})}
	cfg := testConfig()
	cfg.Shards = 1
	cfg.now = clk.Now
	r := NewRouter(w, senderAddr(), cfg)
	defer r.Close()
	defer close(w.release)
	r.Subscribe(stalled)
	r.Subscribe(idle)

	const pkts = 40
	pool := r.Pool()
	for i := 0; i < pkts; i++ {
		r.RouteMedia(pool.Load(mediaWire(1, uint32(i/4), uint16(i%4), 4, false, []byte{byte(i)})))
	}
	reg := cfg.Telemetry
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		cached, depth := metric(t, reg, "livo_relay_retx_cached"), metric(t, reg, "livo_relay_queue_depth_max")
		if cached == pkts && depth > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("livo_relay_retx_cached = %v (want %d), livo_relay_queue_depth_max = %v (want > 0)", cached, pkts, depth)
		}
	}
	if got := metric(t, reg, `livo_relay_rung_subscribers{rung="0"}`); got != 2 {
		t.Fatalf(`livo_relay_rung_subscribers{rung="0"} = %v, want 2`, got)
	}
}

// TestTotalsSurviveUnsubscribe: drops and rung switches have one
// definition — what every subscriber's queue counted, including those that
// have left. A stalled ladder subscriber drops packets and switches rung,
// then unsubscribes: Stats() and the series agree before it leaves and
// read the same after.
func TestTotalsSurviveUnsubscribe(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			clk := &fakeClock{}
			leaving := udp(1)
			w := &stallWriter{rec: newRecWriter(), stalled: leaving.String(), release: make(chan struct{})}
			cfg := testConfig()
			cfg.Shards = shards
			cfg.queueDepth = minQueueDepth
			cfg.now = clk.Now
			r := NewRouter(w, senderAddr(), cfg)
			defer r.Close()
			r.Subscribe(leaving)
			h := &ladderHarness{t: t, r: r, clk: clk}
			remb := func(bps float64) { r.RouteFeedback(transport.AppendREMB(nil, bps), leaving) }

			// Routing is asynchronous: wait until the shards have fanned
			// everything out, with the writer still stalled.
			ingested := func() {
				for _, s := range r.shards {
					for deadline := time.Now().Add(5 * time.Second); !s.idle(); time.Sleep(time.Millisecond) {
						if time.Now().After(deadline) {
							t.Fatal("shard ingest did not drain")
						}
					}
				}
			}
			// Three GOPs on rung 0 overflow the stalled queue. Then two GOPs
			// of REMBs warm up the rung rates, and a REMB collapse moves the
			// subscriber to the quarter rung at a key frame.
			const gop = 10
			for i := 0; i < 3*gop; i++ {
				h.frame(h.seq%gop == 0)
			}
			ingested()
			for i := 0; i < 2*gop; i++ {
				h.frame(h.seq%gop == 0)
				remb(1e6)
			}
			remb(120e3)
			for i := 0; i < gop; i++ {
				h.frame(i == 0)
				remb(120e3)
			}
			ingested()
			close(w.release)
			if !r.WaitIdle(5 * time.Second) {
				t.Fatal("router did not drain")
			}

			reg := cfg.Telemetry
			read := func() (drops, switches int64) {
				st := r.Stats()
				d, s := metric(t, reg, "livo_relay_drops_total"), metric(t, reg, "livo_relay_rung_switches_total")
				if d != float64(st.Drops) || s != float64(st.RungSwitches) {
					t.Fatalf("series read drops %v, switches %v; Stats() %d, %d", d, s, st.Drops, st.RungSwitches)
				}
				return st.Drops, st.RungSwitches
			}
			drops, switches := read()
			if drops == 0 || switches == 0 {
				t.Fatalf("vacuous: %d drops, %d rung switches before unsubscribe", drops, switches)
			}
			if !r.Unsubscribe(leaving) {
				t.Fatal("Unsubscribe = false")
			}
			if d, s := read(); d != drops || s != switches {
				t.Fatalf("after unsubscribe: %d drops, %d rung switches; before: %d, %d", d, s, drops, switches)
			}
		})
	}
}
