package relaycore

import (
	"fmt"
	"testing"
	"time"

	"livo/internal/frametrace"
	"livo/internal/transport"
)

// TestLivenessEviction: a subscriber that has spoken and then stays silent
// past silenceWindow is evicted in full — queue torn down with every pooled
// buffer released (gets == puts across all shards), primary repointed, REMB
// entry evicted so the forwarded minimum rises — and the eviction shows in
// Stats, the series and the event ring. A subscriber that never
// spoke stays. Runs at shards=1 and shards=4 (under -race via the tier-1
// relaycore race list).
func TestLivenessEviction(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			clk := &fakeClock{}
			rec := newRecWriter()
			silent, live, mute := udp(1), udp(2), udp(3)
			// The silent subscriber's socket also stalls, so its queue holds
			// a backlog of pooled buffers at eviction time — the teardown
			// must release them all.
			stall := &stallWriter{rec: rec, stalled: silent.String(), release: make(chan struct{})}
			events := frametrace.NewEventRing(64)
			cfg := testConfig()
			cfg.Shards = shards
			cfg.queueDepth = 256
			cfg.now = clk.Now
			cfg.Events = events
			r := NewRouter(stall, senderAddr(), cfg)

			r.Subscribe(silent)
			r.Subscribe(live)
			r.Subscribe(mute)
			if r.Primary().String() != silent.String() {
				t.Fatalf("primary = %v, want the first subscriber %v", r.Primary(), silent)
			}

			// The soon-to-vanish subscriber reports the lowest estimate: it
			// pins the forwarded REMB minimum until evicted.
			r.RouteFeedback(transport.AppendREMB(nil, 1e6), silent)
			r.RouteFeedback(transport.AppendREMB(nil, 8e6), live)
			if min, ok := lastREMB(t, rec); !ok || min != 1e6 {
				t.Fatalf("forwarded REMB min = %v (%v), want 1e6", min, ok)
			}

			pool := r.Pool()
			for i := 0; i < 128; i++ {
				r.RouteMedia(pool.Load(mediaWire(1, uint32(i/8), uint16(i%8), 8, false, []byte{byte(i)})))
			}

			// Inside the window nobody goes; just past it the subscriber that
			// spoke and fell silent does, while the live one (quiet for 200
			// ms) and the one that never spoke stay.
			clk.Advance(silenceWindow - 100*time.Millisecond)
			r.RouteFeedback(transport.AppendREMB(nil, 8e6), live)
			if n := r.EvictStale(); n != 0 {
				t.Fatalf("EvictStale evicted %d inside the window, want 0", n)
			}
			clk.Advance(200 * time.Millisecond)
			if n := r.EvictStale(); n != 1 {
				t.Fatalf("EvictStale evicted %d past the window, want 1", n)
			}
			if got := r.Subscribers(); got != 2 {
				t.Fatalf("subscribers = %d after eviction, want 2", got)
			}
			if r.Primary().String() != live.String() {
				t.Fatalf("primary = %v after eviction, want %v", r.Primary(), live)
			}
			if st := r.Stats(); st.LivenessEvicted != 1 {
				t.Fatalf("LivenessEvicted = %d, want 1", st.LivenessEvicted)
			}
			if got := metric(t, cfg.Telemetry, "livo_relay_liveness_evictions_total"); got != 1 {
				t.Fatalf("livo_relay_liveness_evictions_total = %v, want 1", got)
			}
			var evicted []int32
			for _, ev := range events.Recent(64) {
				if ev.Kind == frametrace.EvLivenessEvict {
					evicted = append(evicted, ev.Sub)
				}
			}
			if len(evicted) != 1 || evicted[0] != 0 {
				t.Fatalf("liveness events for subs %v, want [0] (the silent subscriber)", evicted)
			}

			// With the slow subscriber's REMB entry gone, the forwarded
			// minimum rises to the surviving subscriber's estimate.
			clk.Advance(50 * time.Millisecond)
			r.RouteFeedback(transport.AppendREMB(nil, 8e6), live)
			if min, ok := lastREMB(t, rec); !ok || min != 8e6 {
				t.Fatalf("forwarded REMB min = %v (%v) after eviction, want 8e6", min, ok)
			}

			// Unblock the parked writer, drain, close: every pooled buffer —
			// the evicted queue's backlog included — must be back.
			close(stall.release)
			if !r.WaitIdle(5 * time.Second) {
				t.Fatal("router did not drain after eviction")
			}
			r.Close()
			if st := r.Stats(); st.PoolLive != 0 {
				t.Fatalf("PoolLive = %d after close, want 0 (gets == puts)", st.PoolLive)
			}
		})
	}
}

// TestLivenessSparesWhoCannotBeJudged: silence is only evidence against a
// subscriber with a reverse path. One that never sent feedback (a sink)
// survives ten windows of it, and one that keeps speaking at the feedback
// cadence is never evicted, however often the sweep runs.
func TestLivenessSparesWhoCannotBeJudged(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			clk := &fakeClock{}
			cfg := testConfig()
			cfg.Shards = shards
			cfg.now = clk.Now
			r := NewRouter(newRecWriter(), senderAddr(), cfg)
			defer r.Close()
			mute, chatty := udp(1), udp(2)
			r.Subscribe(mute)
			r.Subscribe(chatty)
			for elapsed := time.Duration(0); elapsed < 10*silenceWindow; elapsed += 33 * time.Millisecond {
				clk.Advance(33 * time.Millisecond)
				r.RouteFeedback(transport.AppendREMB(nil, 5e6), chatty)
				if n := r.EvictStale(); n != 0 {
					t.Fatalf("EvictStale evicted %d after %v, want 0", n, elapsed)
				}
			}
			if got := r.Subscribers(); got != 2 {
				t.Fatalf("subscribers = %d, want 2", got)
			}
			if st := r.Stats(); st.LivenessEvicted != 0 {
				t.Fatalf("LivenessEvicted = %d, want 0", st.LivenessEvicted)
			}
		})
	}
}

// TestLivenessSweepBackground: the background sweep (real ticker, every
// silenceWindow/4) evicts a subscriber that spoke and fell silent without
// an explicit EvictStale call.
func TestLivenessSweepBackground(t *testing.T) {
	clk := &fakeClock{}
	cfg := testConfig()
	cfg.Shards = 1
	cfg.now = clk.Now
	r := NewRouter(newRecWriter(), senderAddr(), cfg)
	defer r.Close()

	silent, live := udp(1), udp(2)
	r.Subscribe(silent)
	r.Subscribe(live)
	r.RouteFeedback(transport.AppendREMB(nil, 5e6), silent)
	clk.Advance(2 * silenceWindow)

	deadline := time.Now().Add(4 * silenceWindow)
	for time.Now().Before(deadline) {
		r.RouteFeedback(transport.AppendREMB(nil, 5e6), live)
		if r.Subscribers() == 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := r.Subscribers(); got != 1 {
		t.Fatalf("background sweep left %d subscribers, want 1", got)
	}
	if r.Primary().String() != live.String() {
		t.Fatalf("primary = %v, want %v", r.Primary(), live)
	}
}

// lastREMB parses the most recent REMB the router forwarded to the sender.
func lastREMB(t *testing.T, rec *recWriter) (float64, bool) {
	t.Helper()
	var min float64
	found := false
	for _, p := range rec.payloads(senderAddr()) {
		if len(p) > 0 && p[0] == transport.FBREMB {
			v, err := transport.UnmarshalREMB(p)
			if err != nil {
				t.Fatalf("bad forwarded REMB: %v", err)
			}
			min, found = v, true
		}
	}
	return min, found
}
