// Command livo-bench regenerates the paper's tables and figures from the
// replay harness (see DESIGN.md §4 for the experiment index).
//
// Usage:
//
//	livo-bench -list
//	livo-bench -exp fig9fig10
//	livo-bench -exp all -frames 60 -cameras 8
//	livo-bench -codecbench -codecbench-out BENCH_codec.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"livo/internal/codec/vcodec"
	"livo/internal/experiments"
	"livo/internal/telemetry"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		frames   = flag.Int("frames", 0, "frames per replay run (default quick preset)")
		cameras  = flag.Int("cameras", 0, "cameras in the capture rig")
		width    = flag.Int("width", 0, "per-camera width")
		height   = flag.Int("height", 0, "per-camera height")
		users    = flag.Int("users", 0, "user traces per video (1-3)")
		full     = flag.Bool("full", false, "full-quality preset (slow: hours)")
		cbench   = flag.Bool("codecbench", false, "run the vcodec benchmark suite and write JSON results")
		cbenchTo = flag.String("codecbench-out", "BENCH_codec.json", "output path for -codecbench results")
		telemTo  = flag.String("telemetry-out", "BENCH_telemetry.json", "output path for the -codecbench telemetry-overhead measurement")
		pbench   = flag.Bool("pipebench", false, "run the end-to-end frame-path benchmark and write JSON results")
		pbenchTo = flag.String("pipebench-out", "BENCH_pipeline.json", "output path for -pipebench results")
		pbase    = flag.String("pipebench-baseline", "", "compare -pipebench allocs/frame against this baseline JSON; exit nonzero on regression")
		rbench   = flag.Bool("relaybench", false, "run the relay fan-out scale benchmark and write JSON results")
		rbenchTo = flag.String("relaybench-out", "BENCH_relay.json", "output path for -relaybench results")
		rbase    = flag.String("relaybench-baseline", "", "compare -relaybench queued allocs/packet against this baseline JSON; exit nonzero on regression")
		lbench   = flag.Bool("ladderbench", false, "run the quality-ladder benchmark (encode amortization + heterogeneous-REMB fan-out) and write JSON results")
		lbenchTo = flag.String("ladderbench-out", "BENCH_ladder.json", "output path for -ladderbench results")
		nbench   = flag.Bool("netbench", false, "run the kernel-batched wire-path benchmark over real loopback sockets and write JSON results")
		nbenchTo = flag.String("netbench-out", "BENCH_net.json", "output path for -netbench results")
		nbase    = flag.String("netbench-baseline", "", "compare -netbench syscalls/pkt, allocs/pkt, and delivery against this baseline JSON; exit nonzero on regression")
		tbench   = flag.Bool("tracebench", false, "run the frame-trace decomposition and overhead benchmark and write JSON results")
		tbenchTo = flag.String("tracebench-out", "BENCH_trace.json", "output path for -tracebench results")
		tdump    = flag.String("trace-dump", "", "replay the chaos harness with the frame ledger armed and write merged capture→reconstruct timelines (JSONL) to this path")
		short    = flag.Bool("short", false, "reduced -pipebench workload for CI smoke runs")
		debug    = flag.String("debug-addr", "", "serve /debugz, /debug/pprof, and /debug/vars on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	if *debug != "" {
		if _, url, err := telemetry.ServeDebug(*debug, telemetry.Default); err != nil {
			fmt.Fprintf(os.Stderr, "debug server: %v\n", err)
			os.Exit(1)
		} else {
			fmt.Printf("debug server on %s/debugz\n", url)
		}
	}

	if *pbench {
		if err := runPipeBench(*pbenchTo, *pbase, *short); err != nil {
			fmt.Fprintf(os.Stderr, "pipebench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *rbench {
		if err := runRelayBench(*rbenchTo, *rbase, *short); err != nil {
			fmt.Fprintf(os.Stderr, "relaybench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *lbench {
		if err := runLadderBench(*lbenchTo, *short); err != nil {
			fmt.Fprintf(os.Stderr, "ladderbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *nbench {
		if err := runNetBench(*nbenchTo, *nbase, *short); err != nil {
			fmt.Fprintf(os.Stderr, "netbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *tbench {
		if err := runTraceBench(*tbenchTo, *short); err != nil {
			fmt.Fprintf(os.Stderr, "tracebench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *tdump != "" {
		if err := runChaosTraceDump(*tdump, *frames); err != nil {
			fmt.Fprintf(os.Stderr, "trace-dump: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *cbench {
		if err := runCodecBench(*cbenchTo); err != nil {
			fmt.Fprintf(os.Stderr, "codecbench: %v\n", err)
			os.Exit(1)
		}
		if err := runTelemetryBench(*telemTo); err != nil {
			fmt.Fprintf(os.Stderr, "telemetrybench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}

	q := experiments.QuickQuality()
	if *full {
		q = experiments.FullQuality()
	}
	if *frames > 0 {
		q.Frames = *frames
	}
	if *cameras > 0 {
		q.Cameras = *cameras
	}
	if *width > 0 {
		q.Width = *width
	}
	if *height > 0 {
		q.Height = *height
	}
	if *users > 0 {
		q.Users = *users
	}

	run := func(e experiments.Experiment) {
		start := time.Now()
		fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
		if err := e.Run(q, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("(%s in %s)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, e := range experiments.All() {
			run(e)
		}
		return
	}
	e, ok := experiments.ByID(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *exp)
		os.Exit(2)
	}
	run(e)
}

// runPipeBench replays the capture→render frame path (sender encode,
// receiver decode/pair, reconstruction, splat render) and writes per-stage
// latency and allocation measurements as JSON. With a baseline path it
// gates procs=1 allocs/frame — the count that is deterministic regardless
// of parallelism — so CI catches allocation regressions on the hot path.
func runPipeBench(outPath, baselinePath string, short bool) error {
	q := experiments.QuickQuality()
	q.Frames = 48
	warmup := 8
	if short {
		q.Frames = 16
		warmup = 4
	}
	procsList := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		procsList = append(procsList, n)
	}
	fmt.Printf("=== pipebench (video=dance5 frames=%d procs=%v) ===\n", q.Frames, procsList)
	start := time.Now()
	results, err := experiments.RunPipeBench("dance5", q, procsList, warmup)
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Printf("%-16s procs=%-2d %9.3f ms mean %9.3f ms p95 %10.0f allocs/frame %12.0f B/frame\n",
			r.Stage, r.Procs, r.MsMean, r.MsP95, r.AllocsFrame, r.BytesFrame)
	}
	fmt.Printf("(pipebench in %s)\n", time.Since(start).Round(time.Millisecond))
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	if baselinePath != "" {
		return checkPipeBaseline(baselinePath, results)
	}
	return nil
}

// checkPipeBaseline fails when any stage's procs=1 allocs/frame exceeds
// the committed baseline by more than 1.5x + 16. The slack absorbs noise
// from the runtime's own background allocations that land inside a
// measurement window; real regressions (a per-frame buffer that stopped
// being pooled) blow well past it.
func checkPipeBaseline(path string, results []experiments.PipeStageResult) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base []experiments.PipeStageResult
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	baseAllocs := map[string]float64{}
	for _, b := range base {
		if b.Procs == 1 {
			baseAllocs[b.Stage] = b.AllocsFrame
		}
	}
	var failed bool
	for _, r := range results {
		if r.Procs != 1 {
			continue
		}
		b, ok := baseAllocs[r.Stage]
		if !ok {
			continue
		}
		limit := b*1.5 + 16
		if r.AllocsFrame > limit {
			failed = true
			fmt.Fprintf(os.Stderr, "ALLOC REGRESSION %-16s %.0f allocs/frame > limit %.0f (baseline %.0f)\n",
				r.Stage, r.AllocsFrame, limit, b)
		} else {
			fmt.Printf("alloc check %-16s %.0f allocs/frame <= limit %.0f (baseline %.0f)\n",
				r.Stage, r.AllocsFrame, limit, b)
		}
	}
	if failed {
		return fmt.Errorf("allocs/frame regressed against %s", path)
	}
	return nil
}

// runRelayBench sweeps the relay data plane across subscriber counts and
// GOMAXPROCS (1/2/4/8), writes BENCH_relay.json, and prints the multi-core
// scaling ratio at each count. With a baseline path it gates allocs/packet
// and per-core throughput so CI catches fan-out regressions.
func runRelayBench(outPath, baselinePath string, short bool) error {
	fmt.Println("=== relaybench (sharded fan-out) ===")
	start := time.Now()
	results, err := experiments.RunRelayBench(experiments.RelayBenchConfig{}, short, func(line string) {
		fmt.Println(line)
	})
	if err != nil {
		return err
	}
	// Scaling table: routed packets per second across the procs sweep.
	procs1PPS := map[int]float64{}
	for _, r := range results {
		if r.Procs == 1 {
			procs1PPS[r.Subs] = r.PacketsPerSec
		}
	}
	for _, r := range results {
		if r.Procs > 1 && procs1PPS[r.Subs] > 0 {
			fmt.Printf("scaling subs=%-5d procs=%d %6.2fx vs procs=1\n", r.Subs, r.Procs, r.PacketsPerSec/procs1PPS[r.Subs])
		}
	}
	fmt.Printf("(relaybench in %s)\n", time.Since(start).Round(time.Millisecond))
	// Absolute allocation budget, independent of any baseline: the routing
	// hot path is designed for 0 allocs/pkt and the retransmission cache's
	// bookkeeping (owner-shard index map churn) is allowed at most 1, so
	// any cell above 1.0 means the cache leaked work onto the hot path.
	for _, r := range results {
		if r.AllocsPerPacket > 1.0 {
			return fmt.Errorf("relaybench: subs=%d procs=%d %.2f allocs/packet exceeds the 1.0 cache-bookkeeping budget",
				r.Subs, r.Procs, r.AllocsPerPacket)
		}
	}
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	if baselinePath != "" {
		return checkRelayBaseline(baselinePath, results)
	}
	return nil
}

// checkRelayBaseline gates the data plane against the committed baseline,
// matched on (subs, procs):
//
//   - allocs/packet may not exceed baseline + 0.05 — the hot path is
//     designed for 0 allocs/pkt, so any real regression costs ≥1 and the
//     additive slack only absorbs background-runtime noise inside the
//     measurement window;
//   - per-core throughput (pkts/s ÷ procs) may not fall below 90% of
//     baseline (the >10% regression gate).
//
// A shorter measurement window reads systematically slower (startup
// transients amortize less), so when the baseline holds several entries
// for a cell — the committed file carries both the full and the -short
// sweep — the one with the closest window duration is compared, keeping
// CI's short run gated against short-run numbers. Baselines from before
// the procs sweep carry procs=0 and match nothing; regenerate with
// `livo-bench -relaybench` to arm the gate.
func checkRelayBaseline(path string, results []experiments.RelayBenchResult) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base []experiments.RelayBenchResult
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	type cell struct{ subs, procs int }
	baseBy := map[cell][]experiments.RelayBenchResult{}
	for _, b := range base {
		baseBy[cell{b.Subs, b.Procs}] = append(baseBy[cell{b.Subs, b.Procs}], b)
	}
	var failed bool
	for _, r := range results {
		cands := baseBy[cell{r.Subs, r.Procs}]
		if len(cands) == 0 {
			continue
		}
		b := cands[0]
		for _, c := range cands[1:] {
			if math.Abs(c.Seconds-r.Seconds) < math.Abs(b.Seconds-r.Seconds) {
				b = c
			}
		}
		allocLimit := b.AllocsPerPacket + 0.05
		if r.AllocsPerPacket > allocLimit {
			failed = true
			fmt.Fprintf(os.Stderr, "ALLOC REGRESSION relay subs=%-5d procs=%d %.2f allocs/packet > limit %.2f (baseline %.2f)\n",
				r.Subs, r.Procs, r.AllocsPerPacket, allocLimit, b.AllocsPerPacket)
		} else {
			fmt.Printf("alloc check relay subs=%-5d procs=%d %.2f allocs/packet <= limit %.2f (baseline %.2f)\n",
				r.Subs, r.Procs, r.AllocsPerPacket, allocLimit, b.AllocsPerPacket)
		}
		ppsFloor := b.PacketsPerSecCore * 0.9
		if r.PacketsPerSecCore < ppsFloor {
			failed = true
			fmt.Fprintf(os.Stderr, "THROUGHPUT REGRESSION relay subs=%-5d procs=%d %.0f pkts/s/core < floor %.0f (baseline %.0f)\n",
				r.Subs, r.Procs, r.PacketsPerSecCore, ppsFloor, b.PacketsPerSecCore)
		} else {
			fmt.Printf("pps check   relay subs=%-5d procs=%d %.0f pkts/s/core >= floor %.0f (baseline %.0f)\n",
				r.Subs, r.Procs, r.PacketsPerSecCore, ppsFloor, b.PacketsPerSecCore)
		}
	}
	if failed {
		return fmt.Errorf("relay data plane regressed against %s", path)
	}
	return nil
}

// runNetBench A/Bs the kernel-batched wire path (sendmmsg fan-out,
// recvmmsg ingest) against the per-packet fallback over real loopback
// sockets, writes BENCH_net.json, and prints the delivered-throughput
// speedup at each subscriber count. Three gates are absolute and only
// armed where the kernel actually batches (KernelBatched — platforms
// without sendmmsg are informational only):
//
//   - at ≥64 subscribers the batched path must spend at most 1/16 write
//     syscall per fan-out packet (a saturated relay drains full
//     writer-ring batches, so it sits near 1/32) and must stay within the
//     1.0 allocs-per-wire-packet budget;
//   - the peak delivered speedup across the sweep must reach ≥1.2×
//     (≥1.1× under -short, whose window amortizes startup less). The
//     floor is kernel-dependent by nature: batching deletes the syscall
//     entry/exit, and what that is worth depends on how expensive entry
//     is. A loopback microbenchmark on the reference box (see DESIGN.md
//     §7, "wire I/O") puts sendto at ~2.5 µs/pkt vs sendmmsg at
//     ~1.9 µs/pkt — entry costs ~0.6 µs while the kernel's fixed per-skb
//     work (~1.9 µs, identical in both modes and nearly size-independent)
//     dominates, capping the honest wall-clock ratio near 1.3× there. On
//     mitigation-heavy kernels where entry costs 1–2 µs the same 1/32
//     amortization clears 1.5×. The syscalls-per-packet figure, which is
//     deterministic, is therefore the pinned high-fan-out gate.
//
// With a baseline path it additionally gates against the committed
// BENCH_net.json (see checkNetBaseline).
func runNetBench(outPath, baselinePath string, short bool) error {
	fmt.Println("=== netbench (kernel-batched vs per-packet wire path, loopback) ===")
	start := time.Now()
	results, err := experiments.RunNetBench(experiments.NetBenchConfig{}, short, func(line string) {
		fmt.Println(line)
	})
	if err != nil {
		return err
	}
	perpacket := map[int]float64{}
	for _, r := range results {
		if r.Mode == "perpacket" {
			perpacket[r.Subs] = r.DeliveredPerSec
		}
	}
	minRatio := 1.2
	if short {
		minRatio = 1.1
	}
	peakRatio, anyBatched := 0.0, false
	var gateErr error
	for _, r := range results {
		if r.Mode != "batched" {
			continue
		}
		if pp := perpacket[r.Subs]; pp > 0 {
			ratio := r.DeliveredPerSec / pp
			fmt.Printf("speedup subs=%-4d %5.2fx delivered pkts/s vs per-packet\n", r.Subs, ratio)
			if r.KernelBatched && ratio > peakRatio {
				peakRatio = ratio
			}
		}
		if !r.KernelBatched {
			continue
		}
		anyBatched = true
		if r.Subs < 64 {
			continue
		}
		if r.WriteSyscallsPerPkt > 1.0/16 {
			gateErr = fmt.Errorf("netbench: subs=%d spends %.4f write syscalls/pkt, budget 1/16", r.Subs, r.WriteSyscallsPerPkt)
		}
		if r.AllocsPerPacket > 1.0 {
			gateErr = fmt.Errorf("netbench: subs=%d batched path allocates %.2f/pkt, budget 1.0", r.Subs, r.AllocsPerPacket)
		}
	}
	if anyBatched && gateErr == nil && peakRatio < minRatio {
		gateErr = fmt.Errorf("netbench: peak batched speedup %.2fx never reached the %.1fx floor", peakRatio, minRatio)
	}
	fmt.Printf("(netbench in %s)\n", time.Since(start).Round(time.Millisecond))
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	if gateErr != nil {
		return gateErr
	}
	if baselinePath != "" {
		return checkNetBaseline(baselinePath, results)
	}
	return nil
}

// checkNetBaseline gates the batched wire path against the committed
// baseline, matched on (mode, subs) with the closest window duration (the
// committed file carries both the full and the -short sweep, like the
// relay baseline):
//
//   - write syscalls/pkt may not exceed 1.5× baseline + 0.01 — batching
//     regressions are catastrophic (the figure jumps from ~1/32 toward
//     1.0), so the slack only absorbs ring-occupancy noise;
//   - allocs per wire packet may not exceed baseline + 0.05 (the batched
//     path is designed allocation-free);
//   - delivered pkts/s may not fall below 60% of baseline — loopback
//     throughput on a shared one-core box swings ±40% run to run at low
//     fan-out (the baseline keeps each cell's best round, so it sits at
//     the optimistic edge), which is why the floor is much looser than
//     the in-memory relay gate and the syscall/alloc gates above carry
//     the real regression signal.
//
// Cells whose baseline never batched (KernelBatched false) are skipped:
// there is no amortization to protect.
func checkNetBaseline(path string, results []experiments.NetBenchResult) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base []experiments.NetBenchResult
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	type cell struct {
		mode string
		subs int
	}
	baseBy := map[cell][]experiments.NetBenchResult{}
	for _, b := range base {
		baseBy[cell{b.Mode, b.Subs}] = append(baseBy[cell{b.Mode, b.Subs}], b)
	}
	var failed bool
	for _, r := range results {
		if r.Mode != "batched" || !r.KernelBatched {
			continue
		}
		cands := baseBy[cell{r.Mode, r.Subs}]
		if len(cands) == 0 {
			continue
		}
		b := cands[0]
		for _, c := range cands[1:] {
			if math.Abs(c.Seconds-r.Seconds) < math.Abs(b.Seconds-r.Seconds) {
				b = c
			}
		}
		if !b.KernelBatched {
			continue
		}
		sysLimit := b.WriteSyscallsPerPkt*1.5 + 0.01
		if r.WriteSyscallsPerPkt > sysLimit {
			failed = true
			fmt.Fprintf(os.Stderr, "SYSCALL REGRESSION net subs=%-4d %.4f wr-sys/pkt > limit %.4f (baseline %.4f)\n",
				r.Subs, r.WriteSyscallsPerPkt, sysLimit, b.WriteSyscallsPerPkt)
		} else {
			fmt.Printf("syscall check net subs=%-4d %.4f wr-sys/pkt <= limit %.4f (baseline %.4f)\n",
				r.Subs, r.WriteSyscallsPerPkt, sysLimit, b.WriteSyscallsPerPkt)
		}
		allocLimit := b.AllocsPerPacket + 0.05
		if r.AllocsPerPacket > allocLimit {
			failed = true
			fmt.Fprintf(os.Stderr, "ALLOC REGRESSION net subs=%-4d %.2f allocs/pkt > limit %.2f (baseline %.2f)\n",
				r.Subs, r.AllocsPerPacket, allocLimit, b.AllocsPerPacket)
		} else {
			fmt.Printf("alloc check   net subs=%-4d %.2f allocs/pkt <= limit %.2f (baseline %.2f)\n",
				r.Subs, r.AllocsPerPacket, allocLimit, b.AllocsPerPacket)
		}
		floor := b.DeliveredPerSec * 0.6
		if r.DeliveredPerSec < floor {
			failed = true
			fmt.Fprintf(os.Stderr, "THROUGHPUT REGRESSION net subs=%-4d %.0f delivered/s < floor %.0f (baseline %.0f)\n",
				r.Subs, r.DeliveredPerSec, floor, b.DeliveredPerSec)
		} else {
			fmt.Printf("pps check     net subs=%-4d %.0f delivered/s >= floor %.0f (baseline %.0f)\n",
				r.Subs, r.DeliveredPerSec, floor, b.DeliveredPerSec)
		}
	}
	if failed {
		return fmt.Errorf("wire path regressed against %s", path)
	}
	return nil
}

// runTraceBench runs the cross-hop frame-trace benchmark (DESIGN.md §6):
// the pipeline phase produces the capture→reconstruct latency decomposition
// at 64 subscribers, the overhead phase A/Bs the relay with the ledger off
// vs on. Three gates are absolute (no baseline file): the decomposition
// must reconcile (per-frame stage sums within 5% of measured end-to-end),
// tracing may cost the paced relay at most 1% delivered/sec, and the
// traced hot path must stay within the relay's 1.0 allocs/packet budget.
func runTraceBench(outPath string, short bool) error {
	fmt.Println("=== tracebench (cross-hop decomposition + ledger overhead) ===")
	start := time.Now()
	res, err := experiments.RunTraceBench(experiments.TraceBenchConfig{}, short, func(line string) {
		fmt.Println(line)
	})
	if err != nil {
		return err
	}
	for _, s := range res.Pipeline.Stages {
		fmt.Printf("stage %-12s n=%-4d %8.2f ms p50 %8.2f ms p99\n", s.Name, s.Count, s.P50Ms, s.P99Ms)
	}
	e := res.Pipeline.EndToEnd
	fmt.Printf("stage %-12s n=%-4d %8.2f ms p50 %8.2f ms p99 (stage sum %.2f ms, reconcile %.2f%%)\n",
		e.Name, e.Count, e.P50Ms, e.P99Ms, res.Pipeline.StageSumMeanMs, res.Pipeline.ReconcilePct)
	o := res.Overhead
	fmt.Printf("overhead: paced delivery ratio %.3f off vs %.3f on (%.2f%%), allocs/pkt %.2f off vs %.2f on, %d stamps\n",
		o.DeliveredPerRoutedOff, o.DeliveredPerRoutedOn, o.OverheadPct, o.AllocsPerPacketOff, o.AllocsPerPacketOn, o.TraceStamps)
	fmt.Printf("(tracebench in %s)\n", time.Since(start).Round(time.Millisecond))
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	if res.Pipeline.Complete == 0 {
		return fmt.Errorf("tracebench: no frame completed every capture→reconstruct hop")
	}
	if res.Pipeline.ReconcilePct > 5 {
		return fmt.Errorf("tracebench: stage sums diverge %.2f%% from end-to-end latency (budget 5%%) — a hop is stamped out of order or on the wrong clock", res.Pipeline.ReconcilePct)
	}
	if o.TraceStamps == 0 {
		return fmt.Errorf("tracebench: traced overhead rounds recorded no stamps — the comparison measured nothing")
	}
	if o.OverheadPct > 1 {
		return fmt.Errorf("tracebench: tracing costs the paced relay %.2f%% of its delivery ratio (budget 1%%)", o.OverheadPct)
	}
	if o.AllocsPerPacketOn > 1.0 {
		return fmt.Errorf("tracebench: %.2f allocs/packet with tracing on exceeds the 1.0 budget", o.AllocsPerPacketOn)
	}
	return nil
}

// runChaosTraceDump replays the chaos harness with the frame ledger armed
// and writes one merged capture→reconstruct timeline per frame as JSONL
// (the deterministic simulated-time counterpart of livo-conference's
// -trace-dump).
func runChaosTraceDump(outPath string, frames int) error {
	q := experiments.QuickQuality()
	if frames > 0 {
		q.Frames = frames
	}
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer f.Close()
	rep, err := experiments.ChaosTraceDump(q, f)
	if err != nil {
		return err
	}
	// The chaos path has no relay leg, so "complete" here means both ends
	// of the end-to-end span, not every relay chain point.
	fmt.Printf("wrote %s: %d frames merged, %d with capture→reconstruct, e2e p50 %.1f ms p99 %.1f ms\n",
		outPath, rep.Frames, rep.EndToEnd.Count, rep.EndToEnd.P50Ms, rep.EndToEnd.P99Ms)
	return nil
}

// runLadderBench measures the quality ladder's two costs — encode
// amortization (3 rungs vs one) and heterogeneous-REMB fan-out — writes
// BENCH_ladder.json, and enforces the absolute acceptance gates:
//
//   - the 3-rung ladder encode may cost at most 1.6× a single encode;
//   - the routing hot path stays within 1.0 allocs/packet (the same
//     cache-bookkeeping budget as relaybench);
//   - every bandwidth class converges onto its affordable rung and
//     receives ≥99% of that rung's packets, loss-free.
func runLadderBench(outPath string, short bool) error {
	fmt.Println("=== ladderbench (encode-once quality ladder) ===")
	start := time.Now()
	res, err := experiments.RunLadderBench(experiments.LadderBenchConfig{}, short, func(line string) {
		fmt.Println(line)
	})
	if err != nil {
		return err
	}
	fmt.Printf("(ladderbench in %s)\n", time.Since(start).Round(time.Millisecond))
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	if res.EncodeRatio > 1.6 {
		return fmt.Errorf("ladderbench: 3-rung encode is %.2fx one encode, budget 1.6x", res.EncodeRatio)
	}
	fmt.Printf("encode check  %.2fx <= 1.6x budget\n", res.EncodeRatio)
	if res.AllocsPerPacket > 1.0 {
		return fmt.Errorf("ladderbench: %.2f allocs/packet exceeds the 1.0 budget", res.AllocsPerPacket)
	}
	fmt.Printf("alloc check   %.2f allocs/packet <= 1.0 budget\n", res.AllocsPerPacket)
	for _, cl := range res.Classes {
		if cl.OnWantRung != cl.Subs {
			return fmt.Errorf("ladderbench: class %s converged %d/%d subscribers onto rung %d",
				cl.Name, cl.OnWantRung, cl.Subs, cl.WantRung)
		}
		if cl.DeliveredRatio < 0.99 {
			return fmt.Errorf("ladderbench: class %s delivered %.2f%% of rung %d, floor 99%%",
				cl.Name, cl.DeliveredRatio*100, cl.WantRung)
		}
		fmt.Printf("class check   %-4s rung %d delivered %.2f%% >= 99%% floor\n", cl.Name, cl.WantRung, cl.DeliveredRatio*100)
	}
	return nil
}

// runCodecBench executes the vcodec benchmark suite (the same benchmarks
// `go test -bench` runs against internal/codec/vcodec) and writes the
// measurements as JSON so CI can diff ns/op, B/op, and allocs/op across
// commits.
func runCodecBench(outPath string) error {
	procs := runtime.GOMAXPROCS(0)
	fmt.Printf("=== codecbench (GOMAXPROCS=%d) ===\n", procs)
	results := vcodec.RunStandardBenchmarks(procs)
	for _, r := range results {
		fmt.Printf("%-16s n=%-4d %14.0f ns/op %12d B/op %8d allocs/op\n",
			r.Name, r.N, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}

// telemetryBenchResult is the overhead measurement written by -codecbench:
// ns/op of the instrumented 4K color encode with the default registry
// enabled vs disabled. The acceptance budget is ≤2% overhead.
type telemetryBenchResult struct {
	Benchmark   string  `json:"benchmark"`
	Procs       int     `json:"procs"`
	Rounds      int     `json:"rounds"`
	NsOpOn      float64 `json:"ns_op_on"`
	NsOpOff     float64 `json:"ns_op_off"`
	OverheadPct float64 `json:"overhead_pct"`
}

// runTelemetryBench measures telemetry overhead on the 4K color encode
// path. Enabled and disabled rounds alternate, and each mode keeps its
// minimum ns/op, so slow drift (thermal, scheduler) cannot masquerade as
// telemetry cost.
func runTelemetryBench(outPath string) error {
	const name = "Encode4KColor"
	var fn func(*testing.B)
	for _, nb := range vcodec.StandardBenchmarks() {
		if nb.Name == name {
			fn = nb.F
		}
	}
	if fn == nil {
		return fmt.Errorf("benchmark %s not in the standard suite", name)
	}
	fmt.Println("=== telemetry overhead (registry on vs off) ===")
	const rounds = 3
	nsOn, nsOff := math.Inf(1), math.Inf(1)
	for i := 0; i < rounds; i++ {
		telemetry.Default.SetEnabled(true)
		if v := float64(testing.Benchmark(fn).NsPerOp()); v < nsOn {
			nsOn = v
		}
		telemetry.Default.SetEnabled(false)
		if v := float64(testing.Benchmark(fn).NsPerOp()); v < nsOff {
			nsOff = v
		}
	}
	telemetry.Default.SetEnabled(true)
	res := telemetryBenchResult{
		Benchmark:   name,
		Procs:       runtime.GOMAXPROCS(0),
		Rounds:      rounds,
		NsOpOn:      nsOn,
		NsOpOff:     nsOff,
		OverheadPct: (nsOn - nsOff) / nsOff * 100,
	}
	fmt.Printf("%s: on %.0f ns/op, off %.0f ns/op, overhead %+.2f%%\n",
		name, res.NsOpOn, res.NsOpOff, res.OverheadPct)
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}
