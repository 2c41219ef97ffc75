// Command livo-bench regenerates the paper's tables and figures from the
// replay harness (see DESIGN.md §4 for the experiment index).
//
// Usage:
//
//	livo-bench -list
//	livo-bench -exp fig9fig10
//	livo-bench -exp all -frames 60 -cameras 8
//
// Performance is measured elsewhere: end to end and per layer by
// benchmark/run.sh, micro numbers by `go test -bench` beside the code.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"livo/internal/experiments"
	"livo/internal/telemetry"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		frames  = flag.Int("frames", 0, "frames per replay run (default quick preset)")
		cameras = flag.Int("cameras", 0, "cameras in the capture rig")
		width   = flag.Int("width", 0, "per-camera width")
		height  = flag.Int("height", 0, "per-camera height")
		users   = flag.Int("users", 0, "user traces per video (1-3)")
		full    = flag.Bool("full", false, "full-quality preset (slow: hours)")
		tdump   = flag.String("trace-dump", "", "replay the chaos harness with the frame ledger armed and write merged capture→reconstruct timelines (JSONL) to this path")
		debug   = flag.String("debug-addr", "", "serve /debugz, /debug/pprof, and /debug/vars on this address (e.g. localhost:6060)")
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

	if *tdump != "" {
		if err := runChaosTraceDump(*tdump, *frames); err != nil {
			fmt.Fprintf(os.Stderr, "trace-dump: %v\n", err)
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
