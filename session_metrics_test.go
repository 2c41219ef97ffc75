package livo

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"livo/internal/relaycore"
	"livo/internal/scene"
	"livo/internal/telemetry"
	"livo/internal/udpio"
)

// metricSeriesNames is every series a registry shared by two send/recv
// pairs and one two-shard ladder relay writes to /debugz/metrics. Scrapers
// key on these names: changing the list changes what operators read.
var metricSeriesNames = []string{
	"livo_concealed_frames_total",
	"livo_cull_kept_ratio",
	"livo_decode_errors_total",
	"livo_frame_target_bytes",
	"livo_frames_encoded_total",
	"livo_frames_paired_total",
	"livo_jitter_pending_color",
	"livo_jitter_pending_depth",
	"livo_keyframes_total",
	"livo_nack_sent_total",
	"livo_pace_drops_total",
	"livo_pending_unpaired_frames",
	"livo_pli_received_total",
	"livo_pli_sent_total",
	"livo_probe_color_rmse",
	"livo_probe_depth_rmse_mm",
	"livo_recv_est_rate_bps",
	"livo_recv_packets_total",
	"livo_relay_drops_total",
	"livo_relay_fanout_packets_total",
	"livo_relay_liveness_evictions_total",
	"livo_relay_media_packets_total",
	"livo_relay_nack_coalesced_total",
	"livo_relay_nack_forwarded_total",
	"livo_relay_pli_forwarded_total",
	"livo_relay_pli_suppressed_total",
	"livo_relay_queue_depth_max",
	"livo_relay_read_batch_pkts",
	"livo_relay_read_errors_total",
	"livo_relay_remb_forwarded_total",
	"livo_relay_retx_cached",
	"livo_relay_retx_evicted_total",
	"livo_relay_retx_hits_total",
	"livo_relay_retx_misses_total",
	"livo_relay_rung_subscribers{rung=\"0\"}",
	"livo_relay_rung_subscribers{rung=\"1\"}",
	"livo_relay_rung_subscribers{rung=\"2\"}",
	"livo_relay_rung_subscribers{rung=\"3\"}",
	"livo_relay_rung_switches_total",
	"livo_relay_shard_0_routed_total",
	"livo_relay_shard_0_stolen_total",
	"livo_relay_shard_1_routed_total",
	"livo_relay_shard_1_stolen_total",
	"livo_relay_shard_batch_size",
	"livo_relay_subscribers",
	"livo_relay_syscalls_per_pkt",
	"livo_retx_total",
	"livo_send_bytes_total",
	"livo_send_packets_total",
	"livo_send_rate_bps",
	"livo_sender_encoded_bytes_total",
	"livo_seq_mismatch_total",
	"livo_split_s",
}

// scrapeMetrics parses one WriteMetrics pass: the value of every scalar
// line, and the series names its TYPE lines declare.
func scrapeMetrics(t *testing.T, reg *telemetry.Registry) (vals map[string]float64, names []string) {
	t.Helper()
	var sb strings.Builder
	reg.WriteMetrics(&sb)
	vals = map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			names = append(names, f[2])
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if i < 0 || err != nil {
			t.Fatalf("unparsable metrics line %q", line)
		}
		vals[line[:i]] = v
	}
	return vals, names
}

// metricsPair is one send/recv pair of TestMetricsSumSessions.
type metricsPair struct {
	send   *SendSession
	recv   *RecvSession
	clouds atomic.Int64
}

// addSendSeries adds one sending session's Stats to the series they back;
// a closed session's gauges no longer count.
func addSendSeries(m map[string]float64, st SendStats, live bool) {
	m["livo_send_packets_total"] += float64(st.Packets)
	m["livo_send_bytes_total"] += float64(st.Bytes)
	m["livo_pace_drops_total"] += float64(st.PaceDrops)
	m["livo_retx_total"] += float64(st.Retransmits)
	m["livo_pli_received_total"] += float64(st.PLIsReceived)
	m["livo_send_rate_bps"] += 0
	if live {
		m["livo_send_rate_bps"] += st.RateBps
	}
}

// addRecvSeries is addSendSeries for a receiving session.
func addRecvSeries(m map[string]float64, st RecvStats, live bool) {
	m["livo_recv_packets_total"] += float64(st.Received)
	m["livo_nack_sent_total"] += float64(st.NACKsSent)
	m["livo_pli_sent_total"] += float64(st.PLIsSent)
	m["livo_concealed_frames_total"] += float64(st.Concealed)
	for _, k := range []string{"livo_recv_est_rate_bps", "livo_jitter_pending_color", "livo_jitter_pending_depth"} {
		m[k] += 0
	}
	if live {
		m["livo_recv_est_rate_bps"] += st.EstRateBps
		m["livo_jitter_pending_color"] += float64(st.Color.Pending)
		m["livo_jitter_pending_depth"] += float64(st.Depth.Pending)
	}
}

// addRelaySeries adds a live relay's Stats and WireStats to the series
// they back.
func addRelaySeries(m map[string]float64, st relaycore.Stats, wire udpio.SocketStats) {
	for k, v := range map[string]int64{
		"livo_relay_media_packets_total":      st.MediaPackets,
		"livo_relay_fanout_packets_total":     st.FanoutPackets,
		"livo_relay_drops_total":              st.Drops,
		"livo_relay_pli_forwarded_total":      st.PLIForwarded,
		"livo_relay_pli_suppressed_total":     st.PLISuppressed,
		"livo_relay_nack_forwarded_total":     st.NACKForwarded,
		"livo_relay_nack_coalesced_total":     st.NACKCoalesced,
		"livo_relay_remb_forwarded_total":     st.REMBForwarded,
		"livo_relay_retx_hits_total":          st.RetxHits,
		"livo_relay_retx_misses_total":        st.RetxMisses,
		"livo_relay_retx_evicted_total":       st.RetxEvicted,
		"livo_relay_liveness_evictions_total": st.LivenessEvicted,
		"livo_relay_rung_switches_total":      st.RungSwitches,
		"livo_relay_subscribers":              int64(st.Subscribers),
		"livo_relay_queue_depth_max":          st.MaxDepth,
		"livo_relay_retx_cached":              st.RetxCached,
	} {
		m[k] += float64(v)
	}
	for i, n := range st.RungSubscribers {
		m[fmt.Sprintf(`livo_relay_rung_subscribers{rung="%d"}`, i)] += float64(n)
	}
	for _, sh := range st.Shards {
		m[fmt.Sprintf("livo_relay_shard_%d_routed_total", sh.ID)] += float64(sh.Routed)
		m[fmt.Sprintf("livo_relay_shard_%d_stolen_total", sh.ID)] += float64(sh.Stolen)
	}
	m["livo_relay_syscalls_per_pkt"] += 0
	if pkts := wire.ReadPackets + wire.WritePackets; pkts > 0 {
		m["livo_relay_syscalls_per_pkt"] += float64(wire.ReadSyscalls+wire.WriteSyscalls) / float64(pkts)
	}
}

// TestMetricsSumSessions: two send/recv pairs, one direct and one through a
// ladder relay, share one private registry with the relay. Every session
// and relay series reads the sum of the matching Stats() fields; once a
// pair closes its counters stay in the sums and its gauges leave them. A
// scraper runs WriteMetrics the whole time, Close included, so -race sees
// every scrape-time read against the paths that write. The set of series
// names is pinned.
func TestMetricsSumSessions(t *testing.T) {
	v, err := scene.OpenVideo("office1", testCapture())
	if err != nil {
		t.Fatal(err)
	}
	listen := func() *udpio.Socket {
		s, err := udpio.Listen("udp", "127.0.0.1:0", udpio.Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	reg := telemetry.NewRegistry()

	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				reg.WriteMetrics(io.Discard)
			}
		}
	}()
	defer func() {
		close(stop)
		scraper.Wait()
	}()

	aSend, aRecv := listen(), listen()
	bSend, relayConn, bRecv := listen(), listen(), listen()
	relay := NewRelayGroup([]net.PacketConn{relayConn}, bSend.LocalAddr(), relaycore.Config{Shards: 2, Telemetry: reg})
	relay.Subscribe(bRecv.LocalAddr())
	go relay.Run()
	defer relay.Close()

	start := func(sConn, rConn net.PacketConn, sTo, rTo net.Addr, ladder bool) *metricsPair {
		p := &metricsPair{}
		p.send, err = NewSendSession(sConn, sTo, SendSessionConfig{
			Sender: SenderConfig{Array: v.Array, ViewParams: DefaultViewParams(), Telemetry: reg, Ladder: ladder},
		})
		if err != nil {
			t.Fatal(err)
		}
		p.recv, err = NewRecvSession(rConn, rTo, RecvSessionConfig{
			Receiver: ReceiverConfig{Array: v.Array, Telemetry: reg},
		})
		if err != nil {
			t.Fatal(err)
		}
		p.recv.OnCloud = func(uint32, *PointCloud) { p.clouds.Add(1) }
		go p.recv.Run()
		return p
	}
	a := start(aSend, aRecv, aRecv.LocalAddr(), aSend.LocalAddr(), false)
	defer a.send.Close()
	defer a.recv.Close()
	b := start(bSend, bRecv, relayConn.LocalAddr(), relayConn.LocalAddr(), true)
	defer b.send.Close()
	defer b.recv.Close()

	const frames = 16
	for i := 0; i < frames; i++ {
		for _, p := range []*metricsPair{a, b} {
			if _, err := p.send.SendViews(v.Frame(i)); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(33 * time.Millisecond)
	}
	for deadline := time.Now().Add(5 * time.Second); a.clouds.Load() < frames/2 || b.clouds.Load() < frames/2; {
		if time.Now().After(deadline) {
			t.Fatalf("reconstructed %d and %d of %d frames", a.clouds.Load(), b.clouds.Load(), frames)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Feedback keeps flowing (REMB, probes, rate updates), so a comparison
	// counts only when the Stats read before and after the scrape agree.
	settle := func(stage string, want func() map[string]float64) {
		t.Helper()
		var got, w map[string]float64
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
			w = want()
			got, _ = scrapeMetrics(t, reg)
			if fmt.Sprint(w) != fmt.Sprint(want()) {
				continue
			}
			ok := true
			for k, v := range w {
				if got[k] != v {
					ok = false
				}
			}
			if ok {
				return
			}
		}
		keys := make([]string, 0, len(w))
		for k := range w {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if got[k] != w[k] {
				t.Errorf("%s: %s = %v, want %v (sum of Stats)", stage, k, got[k], w[k])
			}
		}
		t.FailNow()
	}
	relayWant := func(m map[string]float64) {
		addRelaySeries(m, relay.Stats(), relay.WireStats())
	}
	settle("both pairs live", func() map[string]float64 {
		m := map[string]float64{}
		for _, p := range []*metricsPair{a, b} {
			addSendSeries(m, p.send.Stats(), true)
			addRecvSeries(m, p.recv.Stats(), true)
		}
		relayWant(m)
		return m
	})
	if st := b.recv.Stats(); st.Received == 0 || relay.Stats().FanoutPackets == 0 {
		t.Fatalf("vacuous: pair b received %d packets, relay fanned out %d", st.Received, relay.Stats().FanoutPackets)
	}

	a.send.Close()
	a.recv.Close()
	aSendFinal, aRecvFinal := a.send.Stats(), a.recv.Stats()
	settle("pair a closed", func() map[string]float64 {
		m := map[string]float64{}
		addSendSeries(m, aSendFinal, false)
		addRecvSeries(m, aRecvFinal, false)
		addSendSeries(m, b.send.Stats(), true)
		addRecvSeries(m, b.recv.Stats(), true)
		relayWant(m)
		return m
	})

	_, names := scrapeMetrics(t, reg)
	if fmt.Sprint(names) != fmt.Sprint(metricSeriesNames) {
		t.Errorf("series names changed:\n got %q\nwant %q", names, metricSeriesNames)
	}

	// Close the rest with the scraper still running.
	b.send.Close()
	b.recv.Close()
	relay.Close()
}
