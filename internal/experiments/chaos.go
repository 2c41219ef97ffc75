package experiments

import (
	"fmt"
	"io"

	"livo/internal/codec/vcodec"
	"livo/internal/core"
	"livo/internal/frametrace"
	"livo/internal/geom"
	"livo/internal/metrics"
	"livo/internal/netem"
	"livo/internal/telemetry"
	"livo/internal/transport"
)

// Chaos replay: unlike the bandwidth-replay experiments (harness.go), which
// model loss as NACK-plus-one-RTT, this harness runs the actual packet
// path — packetize, XOR parity, marshal — through a netem.Chaos fault
// injector and the receiver's real reassembly and recovery machinery:
// jitter buffers, FEC repair, frame skipping, the reference-generation
// check in the decoders, last-good-frame concealment, and the PLI→IDR
// state machine. It validates the §A.1 recovery story end to end: faults
// must never panic, an outage must end within a bounded number of frames
// after the PLI, and decoded quality must return to the clean run's level.

// ChaosRunConfig configures one chaos replay.
type ChaosRunConfig struct {
	Workload *Workload
	// Chaos parameterizes the fault injector; the zero value is a clean run.
	Chaos netem.ChaosConfig
	// FEC enables XOR parity packets (transport.BuildParity).
	FEC bool
	// GOP is the encoder key-frame interval (default 15).
	GOP int
	// LinkMbps is the working-scale (not full-scale) link capacity
	// (default 2.0 — several fragments per frame at chaos-test resolutions).
	LinkMbps float64
	// Seed drives metric subsampling.
	Seed int64
	// Trace, when non-nil, receives per-frame hop stamps in *simulated*
	// replay time (nanoseconds since replay start), so a chaos run exports
	// deterministic capture→reconstruct timelines (-trace-dump). Sender-side
	// hops share the capture instant (the replay has no wall-clock encode
	// cost); wire and jitter hops carry the fault injector's real delays.
	Trace *frametrace.Ledger
}

func (cc ChaosRunConfig) withDefaults() ChaosRunConfig {
	if cc.GOP <= 0 {
		cc.GOP = 15
	}
	if cc.LinkMbps == 0 {
		cc.LinkMbps = 2.0
	}
	return cc
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

// arrival is one packet copy in flight between the link and a jitter buffer.
type arrival struct {
	t   float64
	buf []byte
}

// RunChaos replays one workload through the packet-level pipeline with
// fault injection. It uses the LiVoNoCull variant (culling is orthogonal to
// loss recovery and needs no pose feedback loop here).
func RunChaos(cc ChaosRunConfig) (*ChaosResult, error) {
	cc = cc.withDefaults()
	w := cc.Workload
	q := w.Quality
	const fps = 30.0
	dt := 1 / fps

	// A private registry isolates this run's counters from telemetry.Default
	// (several chaos runs execute per test binary).
	reg := telemetry.NewRegistry()
	sender, err := core.NewSender(core.SenderConfig{
		Variant:    core.LiVoNoCull,
		Array:      w.Array(),
		ViewParams: geom.DefaultViewParams(),
		GOP:        cc.GOP,
		Telemetry:  reg,
	})
	if err != nil {
		return nil, err
	}
	receiver, err := core.NewReceiver(core.ReceiverConfig{Array: w.Array(), Telemetry: reg})
	if err != nil {
		return nil, err
	}

	link := netem.NewFixedLink(cc.LinkMbps)
	chaos := netem.NewChaos(cc.Chaos)
	chaos.Instrument(reg)
	mCorrupt := reg.Counter("livo_transport_corrupt_packets_total")
	mPLI := reg.Counter("livo_pli_sent_total")
	mConcealed := reg.Counter("livo_concealed_frames_total")
	mFEC := reg.Counter("livo_fec_recovered_total")
	jb := map[uint8]*transport.JitterBuffer{
		transport.StreamColor: transport.NewJitterBuffer(),
		transport.StreamDepth: transport.NewJitterBuffer(),
	}
	pli := transport.NewPLITracker()

	res := &ChaosResult{Frames: q.Frames, Telemetry: reg}
	var inflight []arrival
	pliPending := false
	outageStart := -1 // frame seq of the first failure of the current outage
	budget := 0.85 * cc.LinkMbps * 1e6
	tr := cc.Trace // nil-safe: every Stamp below is a no-op when disabled
	simNs := func(t float64) int64 { return int64(t * 1e9) }

	// deliver moves due arrivals into the jitter buffers.
	deliver := func(now float64) {
		kept := inflight[:0]
		for _, a := range inflight {
			if a.t > now {
				kept = append(kept, a)
				continue
			}
			p, err := transport.Unmarshal(a.buf)
			if err != nil {
				res.CorruptPackets++
				mCorrupt.Inc()
				continue
			}
			if p.FragIndex == 0 && !p.Parity {
				tr.Stamp(frametrace.HopWire, p.Stream, p.FrameSeq, frametrace.NoSub, simNs(a.t))
			}
			if b := jb[p.Stream]; b != nil {
				b.Push(p, a.t)
			}
		}
		inflight = kept
	}

	// pop drains both jitter buffers through the receiver's decode/pair/
	// conceal/PLI path.
	pop := func(now float64) error {
		for _, stream := range []uint8{transport.StreamColor, transport.StreamDepth} {
			for _, af := range jb[stream].Pop(now) {
				tr.Stamp(frametrace.HopJitter, stream, af.FrameSeq, frametrace.NoSub, simNs(now))
				pkt := &vcodec.Packet{Data: af.Data, Key: af.Key, Seq: af.FrameSeq}
				var pf *core.PairedFrame
				var err error
				if stream == transport.StreamColor {
					pf, err = receiver.PushColor(pkt)
					tr.Stamp(frametrace.HopDecodeColor, 0, af.FrameSeq, frametrace.NoSub, simNs(now))
				} else {
					pf, err = receiver.PushDepth(pkt)
					tr.Stamp(frametrace.HopDecodeDepth, 0, af.FrameSeq, frametrace.NoSub, simNs(now))
				}
				if err != nil {
					// Undecodable: conceal with the last good pair and run
					// the PLI schedule. Malformed data must surface as an
					// error here, never as a panic.
					res.Concealed++
					mConcealed.Inc()
					if outageStart < 0 {
						outageStart = int(af.FrameSeq)
						res.Outages++
					}
					if pli.Request(now) {
						res.PLISent++
						mPLI.Inc()
						pliPending = true
					}
					continue
				}
				if pf == nil {
					continue
				}
				// A paired frame ends any outage: both streams are decodable
				// again. The pair instant stands in for reconstruction in the
				// trace (the replay only reconstructs on the metric cadence).
				tr.Stamp(frametrace.HopReconstruct, 0, pf.Seq, frametrace.NoSub, simNs(now))
				pli.OnKeyFrame()
				res.Paired++
				if outageStart >= 0 {
					if rec := int(pf.Seq) - outageStart; rec > res.MaxRecoveryFrames {
						res.MaxRecoveryFrames = rec
					}
					outageStart = -1
				}
				if int(pf.Seq) < len(w.GT) && int(pf.Seq)%q.MetricEvery == 0 {
					got, err := receiver.Reconstruct(pf, nil)
					if err != nil {
						return err
					}
					ps := metrics.PointSSIM(w.GT[pf.Seq], got, metrics.PSSIMOptions{
						MaxPoints: q.MetricPoints, K: 8, Seed: cc.Seed + int64(pf.Seq),
					})
					res.Samples = append(res.Samples, ChaosSample{
						Seq: pf.Seq, Geometry: ps.Geometry, Color: ps.Color,
					})
				}
			}
		}
		return nil
	}

	for i := 0; i < q.Frames; i++ {
		now := float64(i) * dt
		// Feedback applied at the next capture instant (the PLI rides the
		// lightly-loaded reverse path; one frame of delay models its RTT).
		if pliPending {
			if sender.RequestKeyFrame() {
				res.Refreshes++
			}
			pliPending = false
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
		var pkts []transport.Packet
		for _, s := range []struct {
			stream uint8
			pkt    *vcodec.Packet
		}{{transport.StreamColor, enc.Color}, {transport.StreamDepth, enc.Depth}} {
			media := transport.Packetize(s.stream, enc.Seq, s.pkt.Key, uint64(now*1e6), s.pkt.Data)
			pkts = append(pkts, media...)
			if cc.FEC {
				pkts = append(pkts, transport.BuildParity(media)...)
			}
		}
		// Pace across the frame interval, then link → chaos → receiver.
		gap := dt / float64(len(pkts)+1)
		for pi := range pkts {
			sendT := now + gap*float64(pi)
			buf := pkts[pi].Marshal()
			for _, d := range chaos.Apply(buf) {
				arr, dropped := link.Send(sendT, len(d.Payload)+20)
				if dropped {
					continue
				}
				inflight = append(inflight, arrival{t: arr + d.ExtraDelay, buf: d.Payload})
			}
		}
		deliver(now)
		if err := pop(now); err != nil {
			return nil, err
		}
	}
	// Drain: keep ticking past the last capture so queued and
	// jitter-buffered frames finish delivery.
	for j := 0; j < 30; j++ {
		now := (float64(q.Frames) + float64(j)) * dt
		deliver(now)
		if err := pop(now); err != nil {
			return nil, err
		}
	}
	// An outage still open at the end of the drain never recovered: charge
	// it the full remaining window so the recovery bound cannot be gamed by
	// ending the run mid-outage.
	if outageStart >= 0 {
		if rec := q.Frames - outageStart; rec > res.MaxRecoveryFrames {
			res.MaxRecoveryFrames = rec
		}
	}
	res.SkippedColor = jb[transport.StreamColor].Skipped()
	res.SkippedDepth = jb[transport.StreamDepth].Skipped()
	res.FECRecovered = jb[transport.StreamColor].FECRecovered() + jb[transport.StreamDepth].FECRecovered()
	mFEC.Add(int64(res.FECRecovered))
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
