// Command benchmark is this repository's benchmark: four workloads driven
// through the public entry points (SendSession → udpio → Relay → RecvSession
// → Render, and the closed Sender/Receiver loop), measured from outside with
// wall-clock stamps, pass-through conns and the public Stats() snapshots.
// See README.md for the metric and workload definitions.
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// run executes one workload once.
func run(o options) (*result, error) {
	res := newResult()
	for _, m := range perLayer { // a layer the workload does not exercise reads 0
		res.metrics[m.Name] = 0
	}
	if o.workload == "replay_trace" {
		return res, runReplayWorkload(res, o)
	}
	spec, ok := liveSpecs[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	return res, runLiveWorkload(res, spec, o)
}

// measured is one pass of a workload, ready to be turned into metrics.
type measured interface {
	endToEnd(res *result, c *clip, seed int64)
	layers(res *result)
}

// measure runs a workload's passes over inputs c. Untraced, one pass of n
// frames gives the end-to-end metrics. Traced, the window is split into two
// passes of n/2 frames over the same inputs: the first, without taps or
// spans, is the reference the tracing overhead is measured against, and the
// second gives the per-layer metrics.
func measure(res *result, o options, c *clip, n int, pass func(n int, traced bool) (measured, error)) error {
	res.set("bench.setup_inputs_s", c.took.Seconds(), 1)
	if !o.trace {
		p, err := pass(n, false)
		if err != nil {
			return err
		}
		p.endToEnd(res, c, o.seed)
		return nil
	}
	ref, err := pass(n/2, false)
	if err != nil {
		return err
	}
	ref.endToEnd(res, c, o.seed)
	p, err := pass(n/2, true)
	if err != nil {
		return err
	}
	traced := newResult()
	p.endToEnd(traced, c, o.seed)
	for _, name := range []string{"e2e_latency_p50_ms", "cpu_ms_per_frame"} {
		if base := res.metrics[name]; base > 0 {
			res.set("bench.trace_overhead_pct."+name, 100*(traced.metrics[name]-base)/base, 2)
		}
	}
	p.layers(res)
	return nil
}

func runLiveWorkload(res *result, spec liveSpec, o options) error {
	c, err := renderClip(spec.scene, spec.cams, spec.w, spec.h, clipFrames)
	if err != nil {
		return err
	}
	return measure(res, o, c, o.seconds*fps, func(n int, traced bool) (measured, error) {
		return runPass(spec, c, o.seed, n, traced)
	})
}

func runReplayWorkload(res *result, o options) error {
	c, err := renderClip(replayScene, replayCams, replayW, replayH, clipFrames)
	if err != nil {
		return err
	}
	err = measure(res, o, c, o.seconds*replayFramesPerSecond, func(n int, traced bool) (measured, error) {
		return runReplay(c, o.seed, n, traced)
	})
	if err != nil || !o.trace {
		return err
	}
	return isolate(res, c, o.seed, res.metrics["core.sender.process_ms.p50"], res.metrics["split.mean_split"])
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// --- output ----------------------------------------------------------------

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) line(specs []metricSpec) contractLine {
	l := contractLine{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range specs {
		l.Metrics[m.Name] = metricValue{r.metrics[m.Name], m.Unit}
	}
	return l
}

// host fingerprints the machine a result was measured on.
type host struct {
	Cores        int    `json:"cores"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	Go           string `json:"go"`
	Kernel       string `json:"kernel"`
	UDPIOBatched bool   `json:"udpio_batched"`
}

func fingerprint() host {
	h := host{Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		h.Kernel = string(b)
	}
	if s, err := listen(); err == nil {
		h.UDPIOBatched = s.Batched()
		_ = s.Close()
	}
	return h
}

// fileMetric is one row of the result file: the value with everything needed
// to judge it.
type fileMetric struct {
	metricSpec
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
}

// fileResult is what -out writes for one workload run.
type fileResult struct {
	Workload  string       `json:"workload"`
	Seed      int64        `json:"seed"`
	Seconds   int          `json:"seconds"`
	Traced    bool         `json:"traced"`
	Host      host         `json:"host"`
	Correct   bool         `json:"correct"`
	Problems  []string     `json:"problems,omitempty"`
	Attempted int          `json:"attempted"`
	Failed    int          `json:"failed"`
	EndToEnd  []fileMetric `json:"end_to_end"`
	PerLayer  []fileMetric `json:"per_layer,omitempty"`
	Spans     []span       `json:"spans,omitempty"`
}

func (r *result) file(o options, h host) fileResult {
	rows := func(specs []metricSpec) []fileMetric {
		out := make([]fileMetric, len(specs))
		for i, m := range specs {
			out[i] = fileMetric{m, r.metrics[m.Name], r.samples[m.Name]}
		}
		return out
	}
	f := fileResult{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Traced: o.trace, Host: h,
		Correct: len(r.problems) == 0, Problems: r.problems, Attempted: r.attempted, Failed: r.failed,
		EndToEnd: rows(endToEnd),
	}
	if o.trace {
		f.PerLayer, f.Spans = rows(perLayer), r.spans
	}
	return f
}

// checkSpread reports, per end-to-end metric, min/median/max over the runs
// and whether the spread stays within the metric's own bound.
func checkSpread(workload string, runs []*result) (ok bool) {
	ok = true
	fmt.Fprintf(os.Stderr, "%s: %d runs\n  %-24s %12s %12s %12s %8s %8s\n", workload, len(runs), "metric", "min", "median", "max", "spread", "bound")
	for _, m := range endToEnd {
		vals := make([]float64, len(runs))
		for i, r := range runs {
			vals[i] = r.metrics[m.Name]
		}
		sort.Float64s(vals)
		spread := quartileSpread(vals)
		verdict := ""
		if spread > m.Bound && m.Name != "setup_s" { // set-up is held to its median only
			verdict, ok = "  EXCEEDS", false
		}
		fmt.Fprintf(os.Stderr, "  %-24s %12.4f %12.4f %12.4f %7.2f%% %7.2f%%%s\n",
			m.Name, vals[0], median(vals), vals[len(vals)-1], 100*spread, 100*m.Bound, verdict)
	}
	return ok
}

func main() {
	var (
		o        options
		trace    = flag.Int("trace", 0, "1 repeats the workload with taps and spans on and reports the per-layer metrics")
		out      = flag.String("out", "", "write the full result (host, seed, samples, bounds, layer table, spans) as JSON to this file")
		repeat   = flag.Int("repeat", 1, "run the set this many times")
		check    = flag.Bool("check", false, "with -repeat: fail if an end-to-end metric's spread exceeds its bound")
		printSpc = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "where the viewer enters its pose trace, the loss schedule and the sink classes")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "length of the timed window")
	smoke := flag.Bool("smoke", false, "5 s window and no spread check, for a quick local look")
	flag.Parse()
	o.trace = *trace != 0
	if *printSpc {
		b, _ := json.MarshalIndent(spec(), "", "  ") // plain structs cannot fail to marshal
		fmt.Println(string(b))
		return
	}
	if *smoke {
		o.seconds = 5
	}
	if o.seconds < 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 2")
		os.Exit(2)
	}

	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames()
	}
	h := fingerprint()
	fmt.Fprintf(os.Stderr, "host: %d cores, GOMAXPROCS %d, %s, kernel %s, udpio batched %v; seed %d\n",
		h.Cores, h.GOMAXPROCS, h.Go, h.Kernel, h.UDPIOBatched, o.seed)

	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	failed := false
	var files []fileResult
	for _, name := range names {
		var runs []*result
		for rep := 0; rep < *repeat; rep++ {
			ro := o
			ro.workload = name
			res, err := run(ro)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "%s: host speed %.3f (probe mean %.3f ms, %d samples); cpu_ms_per_frame as measured %.3f\n", name,
				res.metrics["bench.host_speed"], res.metrics["bench.probe_ms.mean"], res.samples["bench.host_speed"],
				res.metrics["cpu_ms_per_frame"]/res.metrics["bench.host_speed"])
			for _, w := range res.warnings {
				fmt.Fprintf(os.Stderr, "WARN %s: %s\n", name, w)
			}
			for _, p := range res.problems {
				fmt.Fprintf(os.Stderr, "FAIL %s: %s\n", name, p)
				failed = true
			}
			runs = append(runs, res)
			files = append(files, res.file(ro, h))
			line, err := json.Marshal(res.line(specs))
			if err != nil { // a NaN or Inf metric
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
				os.Exit(1)
			}
			fmt.Println(string(line))
		}
		if *check && !*smoke && !checkSpread(name, runs) {
			failed = true
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(files, "", " ")
		if err == nil {
			err = os.WriteFile(*out, b, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
	}
	if failed {
		os.Exit(1)
	}
}
