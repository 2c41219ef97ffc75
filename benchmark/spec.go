package main

import "strings"

// metricSpec declares one metric of BENCHMARK.json. Bound is the share of
// the parent's median by which an end-to-end metric may worsen; per-layer
// metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchSpec is BENCHMARK.json; `-spec` prints it from these tables and a
// test holds the checked-in file to them.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// runSeconds is the window the pipeline measures: 92 runs of set-up + window
// + scoring must fit its 3420 s cap, which a 30 s window would not.
const runSeconds = 15

var workloads = []workloadSpec{
	{"call_clean", "one sender to one receiver on a clean loopback at a pinned, binding 2 Mbps: the latency floor, owned by pacer wait and the fixed playout delay, codec and relay almost none"},
	{"call_lossy", "call_clean plus seeded 2% burst loss and 20 ms each way: same jitter buffer with holes, NACK round trips, PLI and concealment, so a latency gain that costs repair shows"},
	{"fanout_ladder", "ladder sender through one relay socket to 64 subscribers in three pinned REMB classes: relaycore, udpio and the ladder encode do the work; only place per-rung quality shows"},
	{"replay_trace", "10-camera rig in a closed loop with no sockets and a bandwidth trace: codec, cull, split, reconstruct and render do all the work and the network none, so a codec gain shows"},
}

var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"e2e_latency_p50_ms", "ms", "lower", 0.10},
	{"e2e_latency_p95_ms", "ms", "lower", 0.25},
	{"ontime_frame_ratio", "ratio", "higher", 0.10},
	{"pssim_geometry", "pssim", "higher", 0.03},
	{"pssim_color", "pssim", "higher", 0.03},
	{"pssim_geometry_rung2", "pssim", "higher", 0.03},
	{"pssim_color_rung2", "pssim", "higher", 0.03},
	{"rate_util", "ratio", "higher", 0.10},
	{"cpu_ms_per_frame", "ms", "lower", 0.25},
	{"pipeline_fps", "1/s", "higher", 0.25},
}

// perLayer lists every per-layer metric; a workload that does not exercise
// a layer reports 0 for it. Names are "<module>.<what>".
var perLayer = layerSpecs(
	// Boundary stages of a frame, telescoping to its end-to-end latency.
	"session.send_call_ms.p50 ms lower", "session.send_call_ms.p95 ms lower",
	"session.pace_wait_ms.p50 ms lower", "session.pace_wait_ms.p95 ms lower",
	"udpio.wire_ms.p50 ms lower", "udpio.wire_ms.p95 ms lower",
	"udpio.uplink_ms.p50 ms lower", "udpio.uplink_ms.p95 ms lower",
	"relaycore.transit_ms.p50 ms lower", "relaycore.transit_ms.p95 ms lower",
	"udpio.downlink_ms.p50 ms lower", "udpio.downlink_ms.p95 ms lower",
	"session.playout_ms.p50 ms lower", "session.playout_ms.p95 ms lower",
	"render.splat_ms.p50 ms lower", "render.splat_ms.p95 ms lower",
	"bench.gen_late_ms.p99 ms lower",
	"bench.window_p95_ms ms lower",
	"bench.reconcile_pct % lower",
	"bench.trace_overhead_pct.e2e_latency_p50_ms % lower",
	"bench.trace_overhead_pct.cpu_ms_per_frame % lower",
	"bench.host_speed ratio higher", "bench.probe_ms.mean ms lower", "bench.stolen_ms ms lower",
	"bench.setup_inputs_s s lower", "bench.setup_construct_ms ms lower", "bench.setup_warmup_s s lower",
	// Counters from public Stats() snapshots.
	"session.send_pkts count lower", "session.send_bytes bytes lower",
	"session.pace_drops count lower", "session.retx_sent count lower",
	"session.nacks_sent count lower", "session.plis_sent count lower",
	"session.concealed_frames count lower", "session.jitter_skipped_frames count lower",
	"session.out_of_order_frames count lower",
	"transport.nack_per_kpkt 1/kpkt lower", "transport.repair_ratio ratio higher",
	"relaycore.media_pkts count lower", "relaycore.enqueued count lower",
	"relaycore.sent count higher", "relaycore.dropped count lower",
	"relaycore.max_depth count lower", "relaycore.retx_hits count higher",
	"relaycore.retx_misses count lower", "relaycore.rung_switches count lower",
	"relaycore.pli_forwarded count lower", "relaycore.subs_on_expected_rung count higher",
	"relaycore.stolen_queues count lower", "relaycore.pool_live_after_close count lower",
	"relaycore.class_fast.e2e_p50_ms ms lower", "relaycore.class_mid.e2e_p50_ms ms lower",
	"relaycore.class_slow.e2e_p50_ms ms lower",
	"udpio.write_syscalls_per_pkt ratio lower", "udpio.read_syscalls_per_pkt ratio lower",
	"udpio.truncated count lower",
	"proc.cpu_user_ms_per_frame ms lower", "proc.cpu_sys_ms_per_frame ms lower",
	"proc.allocs_per_frame count lower", "proc.alloc_bytes_per_frame bytes lower",
	"proc.gc_pause_ms ms lower", "proc.rss_peak_mb MB lower",
	"bench.sink_delivered_ratio ratio higher",
	// replay_trace: spans around each call, summing to the frame time.
	"core.sender.process_ms.p50 ms lower", "core.sender.process_ms.p95 ms lower",
	"transport.packetize_us.p50 us lower", "transport.packetize_us.p95 us lower",
	"transport.jitter_us.p50 us lower", "transport.jitter_us.p95 us lower",
	"core.receiver.decode_ms.p50 ms lower", "core.receiver.decode_ms.p95 ms lower",
	"core.receiver.reconstruct_ms.p50 ms lower", "core.receiver.reconstruct_ms.p95 ms lower",
	"core.sender.process.allocs_per_frame count lower", "transport.packetize.allocs_per_frame count lower",
	"transport.jitter.allocs_per_frame count lower", "core.receiver.decode.allocs_per_frame count lower",
	"core.receiver.reconstruct.allocs_per_frame count lower", "render.splat.allocs_per_frame count lower",
	// replay_trace: isolation pass over the same inputs, one layer at a time.
	"cull.views_ms ms lower", "frame.tile_ms ms lower",
	"codec.vcodec.encode_color_ms ms lower", "codec.depth.encode_ms ms lower",
	"codec.vcodec.decode_color_ms ms lower", "codec.depth.decode_ms ms lower",
	"core.sender.self_ms ms lower", "core.sender.process_ladder_ms ms lower",
	"cull.kept_fraction ratio lower", "split.mean_split ratio lower",
	"codec.bytes_per_frame bytes lower", "codec.key_frame_bytes bytes lower",
)

// layerSpecs parses "name unit better" triples.
func layerSpecs(rows ...string) []metricSpec {
	out := make([]metricSpec, len(rows))
	for i, r := range rows {
		f := strings.Fields(r)
		out[i] = metricSpec{Name: f[0], Unit: f[1], Better: f[2]}
	}
	return out
}

func spec() benchSpec {
	return benchSpec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}
