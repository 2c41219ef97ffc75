package experiments

import (
	"fmt"
	"io"
	"math"

	"livo/internal/core"
	"livo/internal/frametrace"
	"livo/internal/geom"
	"livo/internal/metrics"
	"livo/internal/netem"
	"livo/internal/telemetry"
	"livo/internal/transport"
)

// Chaos replay: the harness's transport (transmitter) through a netem.Chaos
// fault injector into the receiver's reassembly and recovery machinery:
// NACK and FEC repair, frame skipping, the decoders' reference check,
// last-good-frame concealment and the PLI→IDR state machine. It validates
// the §A.1 recovery story end to end: faults must never panic, an outage
// must end within a bounded number of frames after the PLI, and decoded
// quality must return to the clean run's level.

// A chaos run's key-frame interval, and its working-scale (not full-scale)
// link capacity: several fragments per frame at chaos-test resolutions.
const (
	chaosGOP      = 15
	chaosLinkMbps = 2.0
)

// ChaosRunConfig configures one chaos replay.
type ChaosRunConfig struct {
	Workload *Workload
	// Chaos parameterizes the fault injector; the zero value is a clean run.
	Chaos netem.ChaosConfig
	// FEC enables XOR parity packets (transport.BuildParity).
	FEC bool
	// Seed drives metric subsampling.
	Seed int64
	// Trace, when non-nil, receives per-frame hop stamps in *simulated*
	// replay time (nanoseconds since replay start), so a chaos run exports
	// deterministic capture→reconstruct timelines (-trace-dump). Sender-side
	// hops share the capture instant (the replay has no wall-clock encode
	// cost); wire and jitter hops carry the transport's simulated delays.
	Trace *frametrace.Ledger
}

// ChaosSample is the decoded quality of one successfully paired frame.
type ChaosSample struct {
	Seq             uint32
	Geometry, Color float64
}

// ChaosResult aggregates one chaos replay.
type ChaosResult struct {
	Frames    int // frames sent
	Paired    int // frames decoded and paired at the receiver
	Concealed int // decode failures covered by the last good frame
	// CorruptPackets counts packets rejected at transport parse time
	// (bit flips caught by Unmarshal).
	CorruptPackets int
	PLISent        int // PLIs emitted by the receiver
	Refreshes      int // recovery IDRs armed at the sender
	Outages        int // distinct undecodable periods
	// MaxRecoveryFrames is the longest outage, in frames, from the first
	// decode failure to the next successfully paired frame.
	MaxRecoveryFrames          int
	SkippedColor, SkippedDepth int // jitter-buffer frame skips
	FECRecovered               int // fragments repaired by parity
	// Samples holds per-frame decoded quality on the metric cadence.
	Samples []ChaosSample
	// Telemetry is the run's private registry: the same events counted by
	// the result fields, observed through the instrumented components
	// (chaos injector, sender, receiver). Tests cross-check the two views.
	Telemetry *telemetry.Registry
}

// RunChaos replays one workload through the packet-level pipeline with
// fault injection. It uses the LiVoNoCull variant (culling is orthogonal to
// loss recovery and needs no pose feedback loop here).
func RunChaos(cc ChaosRunConfig) (*ChaosResult, error) {
	w := cc.Workload
	q := w.Quality
	const dt = 1.0 / 30

	// A private registry isolates this run's counters from telemetry.Default
	// (several chaos runs execute per test binary).
	reg := telemetry.NewRegistry()
	sender, err := core.NewSender(core.SenderConfig{
		Variant:    core.LiVoNoCull,
		Array:      w.Array(),
		ViewParams: geom.DefaultViewParams(),
		GOP:        chaosGOP,
		Telemetry:  reg,
	})
	if err != nil {
		return nil, err
	}
	receiver, err := core.NewReceiver(core.ReceiverConfig{Array: w.Array(), Telemetry: reg})
	if err != nil {
		return nil, err
	}
	chaos := netem.NewChaos(cc.Chaos)
	chaos.Instrument(reg)

	res := &ChaosResult{Frames: q.Frames, Telemetry: reg}
	budget := 0.85 * chaosLinkMbps * 1e6
	tr := cc.Trace // nil-safe: every Stamp below is a no-op when disabled

	tx := newTransmitter(netem.NewFixedLink(chaosLinkMbps), receiver, &transport.PlayoutEstimator{}, cc.FEC)
	tx.faults, tx.rx.Trace = chaos.Apply, tr
	tx.onPair = func(pf *core.PairedFrame, at, _ float64) error {
		// The pair instant stands in for reconstruction in the trace (the
		// replay only reconstructs on the metric cadence).
		tr.Stamp(frametrace.HopReconstruct, 0, pf.Seq, frametrace.NoSub, simNs(at))
		res.Paired++
		if int(pf.Seq) >= len(w.GT) || int(pf.Seq)%q.MetricEvery != 0 {
			return nil
		}
		got, err := receiver.Reconstruct(pf, nil)
		if err != nil {
			return err
		}
		ps := metrics.PointSSIM(w.GT[pf.Seq], got, metrics.PSSIMOptions{
			MaxPoints: q.MetricPoints, K: 8, Seed: cc.Seed + int64(pf.Seq),
		})
		res.Samples = append(res.Samples, ChaosSample{Seq: pf.Seq, Geometry: ps.Geometry, Color: ps.Color})
		return nil
	}

	for i := 0; i < q.Frames; i++ {
		now := float64(i) * dt
		if err := tx.advance(now); err != nil {
			return nil, err
		}
		// Feedback applied at the next capture instant (the PLI rides the
		// lightly-loaded reverse path). The chaos link's capacity is fixed,
		// so the congestion estimate goes unused.
		if _, pli := tx.feedback(); pli && sender.RequestKeyFrame() {
			res.Refreshes++
		}
		enc, err := sender.ProcessFrame(w.Views[i], budget)
		if err != nil {
			return nil, err
		}
		// Sender-side hops all share the capture instant: the replay models
		// transport time, not encode time, so these stages are zero-width.
		for _, hop := range []frametrace.Hop{frametrace.HopCapture, frametrace.HopCull, frametrace.HopTile,
			frametrace.HopEncodeColor, frametrace.HopEncodeDepth, frametrace.HopPacketize} {
			tr.Stamp(hop, 0, enc.Seq, frametrace.NoSub, simNs(now))
		}
		tx.send(now, enc, budget)
	}
	// Drain: run the transport until every frame is delivered or given up.
	if err := tx.advance(math.Inf(1)); err != nil {
		return nil, err
	}
	// An outage still open at the end of the drain never recovered: charge
	// it the full remaining window so the recovery bound cannot be gamed by
	// ending the run mid-outage.
	res.Outages, res.MaxRecoveryFrames = tx.outages, tx.maxRecovery
	if tx.outageStart >= 0 {
		res.MaxRecoveryFrames = max(res.MaxRecoveryFrames, q.Frames-tx.outageStart)
	}
	color, depth := tx.rx.StreamStats(0), tx.rx.StreamStats(1)
	res.SkippedColor, res.SkippedDepth = int(color.Skipped), int(depth.Skipped)
	res.FECRecovered = int(color.FECRecovered + depth.FECRecovered)
	res.CorruptPackets, res.Concealed, res.PLISent = tx.corrupt, int(tx.rx.Concealed.Load()), int(tx.rx.PLIs.Load())
	reg.Counter("livo_transport_corrupt_packets_total").Add(int64(res.CorruptPackets))
	reg.Counter("livo_pli_sent_total").Add(int64(res.PLISent))
	reg.Counter("livo_concealed_frames_total").Add(int64(res.Concealed))
	reg.Counter("livo_fec_recovered_total").Add(int64(res.FECRecovered))
	return res, nil
}

// GeomBySeq indexes the geometry samples by frame sequence (for comparing
// a chaos run against its clean twin frame by frame).
func (r *ChaosResult) GeomBySeq() map[uint32]float64 {
	m := make(map[uint32]float64, len(r.Samples))
	for _, s := range r.Samples {
		m[s.Seq] = s.Geometry
	}
	return m
}

// ChaosReport is the `chaos` experiment entry point: a clean replay and a
// fault-injected replay of office1 side by side (EXPERIMENTS.md).
func ChaosReport(q Quality, out io.Writer) error {
	w, err := workload("office1", q)
	if err != nil {
		return err
	}
	clean, err := RunChaos(ChaosRunConfig{Workload: w, FEC: true, Seed: 1})
	if err != nil {
		return err
	}
	faulty, err := RunChaos(ChaosRunConfig{
		Workload: w, Chaos: netem.DefaultChaosConfig(42), FEC: true, Seed: 1,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Chaos: burst loss + corruption vs clean (office1, GOP 15)\n")
	fmt.Fprintf(out, "%-22s %-10s %-10s\n", "metric", "clean", "chaos")
	row := func(name string, c, f interface{}) { fmt.Fprintf(out, "%-22s %-10v %-10v\n", name, c, f) }
	row("frames paired", clean.Paired, faulty.Paired)
	row("concealed", clean.Concealed, faulty.Concealed)
	row("corrupt packets", clean.CorruptPackets, faulty.CorruptPackets)
	row("PLIs sent", clean.PLISent, faulty.PLISent)
	row("recovery IDRs", clean.Refreshes, faulty.Refreshes)
	row("outages", clean.Outages, faulty.Outages)
	row("max recovery (frames)", clean.MaxRecoveryFrames, faulty.MaxRecoveryFrames)
	row("jitter skips", clean.SkippedColor+clean.SkippedDepth, faulty.SkippedColor+faulty.SkippedDepth)
	row("FEC recovered", clean.FECRecovered, faulty.FECRecovered)
	var cg, fg []float64
	for _, s := range clean.Samples {
		cg = append(cg, s.Geometry)
	}
	for _, s := range faulty.Samples {
		fg = append(fg, s.Geometry)
	}
	fmt.Fprintf(out, "%-22s %-10.1f %-10.1f\n", "geom PSSIM (decoded)", metrics.Mean(cg), metrics.Mean(fg))
	return nil
}

// ChaosTraceDump replays office1 through the chaos harness (bursty loss,
// corruption, FEC on) with the frame ledger armed, writes the merged
// capture→reconstruct timelines as JSONL to out, and returns their latency
// decomposition. Chaos stamps carry *simulated* replay time, so the dump is
// deterministic for a given quality preset and seed.
func ChaosTraceDump(q Quality, out io.Writer) (frametrace.Report, error) {
	w, err := workload("office1", q)
	if err != nil {
		return frametrace.Report{}, err
	}
	led := frametrace.NewLedger(1 << 13)
	if _, err := RunChaos(ChaosRunConfig{
		Workload: w, Chaos: netem.DefaultChaosConfig(42), FEC: true, Seed: 1, Trace: led,
	}); err != nil {
		return frametrace.Report{}, err
	}
	col := frametrace.NewCollector()
	col.Add(led)
	tls := col.Merge(frametrace.NoSub)
	if err := frametrace.WriteTimelinesJSONL(out, tls); err != nil {
		return frametrace.Report{}, err
	}
	return frametrace.Decompose(tls), nil
}
