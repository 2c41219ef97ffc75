package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	"livo"
	"livo/internal/codec/depth"
	"livo/internal/codec/vcodec"
	"livo/internal/cull"
	"livo/internal/frame"
	"livo/internal/trace"
	"livo/internal/transport"
)

const (
	replayScene           = "dance5"
	replayCams            = 10
	replayW, replayH      = 160, 144
	replayFramesPerSecond = 20 // frames replayed per requested second: a fixed count, so inputs and quality do not depend on host speed
	replayWarm            = 10 // untimed frames, part of set-up
	replaySampleEvery     = 20 // PointSSIM on every 20th frame
	replayMaxPoints       = 500
	isolationFrames       = 60 // two GOPs through each layer on its own
	jitterDelay           = 0.100
)

// replayBandwidth is trace-2 scaled to the rig: the pixel ratio to the
// paper's 10×640×576 capture, times two for the codec-efficiency gap to NVENC.
func replayBandwidth() *trace.Bandwidth {
	ratio := float64(replayCams*replayW*replayH) / float64(10*640*576)
	return trace.Trace2().Scale(2 * ratio)
}

// replaySpans names the closed loop's calls in order; their durations sum to
// the frame time.
var replaySpans = []string{
	"core.sender.process", "transport.packetize", "transport.jitter",
	"core.receiver.decode", "core.receiver.reconstruct", "render.splat",
}

// replayPass is everything one closed-loop run produced.
type replayPass struct {
	construct time.Duration
	warmup    time.Duration
	durs      map[string][]float64 // traced: per-span ms
	allocs    map[string]float64   // traced: heap objects allocated inside each span
	usage     procUsage
	probe     speedProbe    // host speed over the timed window
	stolen    time.Duration // what the hypervisor stole of the timed window
	// Per timed frame:
	busy     []float64 // ProcessFrame entered → Render returned, ms of wall time
	fresh    int       // frames that came out as their own cloud
	bytes    float64   // wire bytes emitted
	budget   float64   // bytes the trace allowed
	shown    []shown
	kept     []float64 // per frame: cull kept fraction, split, encoded bytes
	split    []float64
	encBytes []float64
	keyBytes []float64
	spans    []span
}

// replayLoop is the constructed program side of the closed loop.
type replayLoop struct {
	sender   *livo.Sender
	receiver *livo.Receiver
	jitter   [2]*transport.JitterBuffer // color, depth
}

func newReplayLoop(c *clip) (*replayLoop, error) {
	s, err := livo.NewSender(livo.SenderConfig{Array: c.video.Array, ViewParams: livo.DefaultViewParams()})
	if err != nil {
		return nil, err
	}
	r, err := livo.NewReceiver(livo.ReceiverConfig{Array: c.video.Array})
	if err != nil {
		return nil, err
	}
	return &replayLoop{s, r, [2]*transport.JitterBuffer{transport.NewJitterBuffer(), transport.NewJitterBuffer()}}, nil
}

func heapObjects(sample []metrics.Sample) float64 {
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64())
}

// runReplay drives n timed frames through sender → packets → jitter buffers
// on a virtual clock → receiver → render, one frame at a time.
func runReplay(c *clip, seed int64, n int, traced bool) (*replayPass, error) {
	p := &replayPass{durs: map[string][]float64{}, allocs: map[string]float64{}}
	t := startStretch()
	loop, err := newReplayLoop(c)
	if err != nil {
		return nil, err
	}
	p.construct = t.took()
	viewer := newViewer(replayScene, seed, float64(replayWarm+n)/fps)
	bw := replayBandwidth()
	heap := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

	var origin time.Time
	frameOnce := func(g int, timed bool) error {
		vt := float64(g) / fps // virtual capture time
		pose := viewer.At(vt)
		views := c.at(g)
		budget := bw.At(vt) * 1e6
		loop.sender.ObservePose(vt, pose)

		start := time.Now()
		prev, prevHeap := start, 0.0
		if traced {
			prevHeap = heapObjects(heap)
		}
		trID := uint64(g) * 16
		mark := func(name string) {
			if !traced || !timed {
				return
			}
			now, h := time.Now(), heapObjects(heap)
			p.durs[name] = append(p.durs[name], ms(now.Sub(prev)))
			p.allocs[name] += h - prevHeap
			p.spans = append(p.spans, span{trID, name, "frame", ms(prev.Sub(origin)), ms(now.Sub(origin))})
			prev, prevHeap = now, h
		}

		enc, err := loop.sender.ProcessFrame(views, budget)
		if err != nil {
			return fmt.Errorf("ProcessFrame %d: %w", g, err)
		}
		mark("core.sender.process")

		ts := uint64(vt * 1e6)
		pkts := append(transport.Packetize(transport.StreamColor, enc.Seq, enc.Color.Key, ts, enc.Color.Data),
			transport.Packetize(transport.StreamDepth, enc.Seq, enc.Depth.Key, ts, enc.Depth.Data)...)
		wires := make([][]byte, len(pkts))
		wireBytes := 0
		for i := range pkts {
			wires[i] = pkts[i].Marshal()
			wireBytes += len(wires[i])
		}
		mark("transport.packetize")

		var ready [2]*transport.AssembledFrame
		for _, w := range wires {
			pkt, err := transport.Unmarshal(w)
			if err != nil {
				return fmt.Errorf("Unmarshal frame %d: %w", g, err)
			}
			loop.jitter[pkt.Stream-transport.StreamColor].Push(pkt, vt)
		}
		for si, jb := range loop.jitter {
			if afs := jb.Pop(vt + jitterDelay); len(afs) == 1 {
				ready[si] = &afs[0]
			}
		}
		mark("transport.jitter")

		var cloud *livo.PointCloud
		if ready[0] != nil && ready[1] != nil {
			if _, err := loop.receiver.PushColor(&vcodec.Packet{Data: ready[0].Data, Key: ready[0].Key, Seq: ready[0].FrameSeq}); err != nil {
				return fmt.Errorf("PushColor %d: %w", g, err)
			}
			pf, err := loop.receiver.PushDepth(&vcodec.Packet{Data: ready[1].Data, Key: ready[1].Key, Seq: ready[1].FrameSeq})
			if err != nil {
				return fmt.Errorf("PushDepth %d: %w", g, err)
			}
			mark("core.receiver.decode")
			if pf != nil && pf.Seq == enc.Seq {
				f := livo.NewFrustum(pose, livo.DefaultViewParams())
				if cloud, err = loop.receiver.Reconstruct(pf, &f); err != nil {
					return fmt.Errorf("Reconstruct %d: %w", g, err)
				}
				mark("core.receiver.reconstruct")
				livo.Render(cloud, pose, livo.RenderOptions{})
				mark("render.splat")
			}
		}
		if !timed {
			return nil
		}
		end := time.Now()
		p.busy = append(p.busy, ms(end.Sub(start)))
		if traced {
			p.spans = append(p.spans, span{trID, "frame", "", ms(start.Sub(origin)), ms(end.Sub(origin))})
		}
		if cloud != nil {
			p.fresh++
		}
		p.bytes += float64(wireBytes)
		p.budget += budget / 8 / fps
		p.kept = append(p.kept, enc.CullStats.KeptFraction())
		p.split = append(p.split, enc.Split)
		p.encBytes = append(p.encBytes, float64(enc.TotalBytes()))
		if enc.Color.Key {
			p.keyBytes = append(p.keyBytes, float64(enc.TotalBytes()))
		}
		if (g-replayWarm)%replaySampleEvery == 0 {
			s := shown{frame: g, pose: pose}
			if cloud != nil {
				s.cloud = cloud.Clone()
			}
			p.shown = append(p.shown, s)
		}
		return nil
	}

	t = startStretch()
	for g := 0; g < replayWarm; g++ {
		if err := frameOnce(g, false); err != nil {
			return nil, err
		}
	}
	p.warmup = t.took()

	u0 := readProcUsage(traced)
	st0 := stolen()
	origin = time.Now()
	for g := replayWarm; g < replayWarm+n; g++ {
		p.probe.once()
		if err := frameOnce(g, true); err != nil {
			return nil, err
		}
	}
	p.usage = readProcUsage(traced).since(u0)
	p.usage.user -= p.probe.cpu
	p.stolen = stolen() - st0
	return p, nil
}

// endToEnd fills the end-to-end metrics of a closed-loop pass, each over the
// whole timed window.
func (p *replayPass) endToEnd(res *result, c *clip, seed int64) {
	n := len(p.busy)
	// Set-up here is all computing (ray casting, construction, ten untimed
	// frames), so all of it goes on the reference host's speed.
	res.set("setup_s", (c.took+p.construct+p.warmup).Seconds()*c.speed, 1)
	res.attempted, res.failed = n, n-p.fresh
	// A frame is captured at its virtual time and displayed once the pipeline
	// has worked on it (wall time) and the jitter buffer has held it for its
	// playout delay (virtual time).
	// Nothing in this loop waits, so every time in it scales with host speed,
	// once what the hypervisor stole has come off it.
	total := mean(p.busy) * float64(n)
	own := 1 - ms(p.stolen)/total
	if own < 0.25 {
		own = 0.25 // a guest that was off the CPU for most of the window measured nothing
	}
	res.hostSpeed(&p.probe)
	res.set("bench.stolen_ms", ms(p.stolen), 1)
	scale := own * p.probe.speed()
	res.set("e2e_latency_p50_ms", percentile(p.busy, 50)*scale+jitterDelay*1000, n)
	byFrame := make([][]float64, n)
	for i, b := range p.busy {
		byFrame[i] = []float64{b}
	}
	res.set("e2e_latency_p95_ms", typicalTail(byFrame, replayFramesPerSecond, 95)*scale+jitterDelay*1000, n)
	res.set("bench.window_p95_ms", percentile(p.busy, 95)*scale+jitterDelay*1000, n)
	res.set("ontime_frame_ratio", float64(p.fresh)/float64(n), n)
	res.set("pipeline_fps", 1000*float64(p.fresh)/(total*scale), n)
	res.set("rate_util", p.bytes/p.budget, n)
	res.set("cpu_ms_per_frame", ms(p.usage.user+p.usage.sys)/float64(n)*p.probe.speed(), n)
	// No ladder runs here, so rung 0 is also the lowest rung a viewer can get.
	scores, err := scoreShown(c, p.shown, replayMaxPoints, seed)
	setQuality(res, scores, err, "", "_rung2")
	if geo := res.metrics["pssim_geometry"]; geo < 90 {
		res.problems = append(res.problems, fmt.Sprintf("pssim_geometry %.2f < 90 with no network in the loop", geo))
	}
}

// layers fills the per-layer metrics of a traced closed-loop pass.
func (p *replayPass) layers(res *result) {
	n := len(p.busy)
	for _, name := range replaySpans {
		d := p.durs[name]
		switch name {
		case "transport.packetize", "transport.jitter":
			us := make([]float64, len(d))
			for i, v := range d {
				us[i] = v * 1000
			}
			res.setPcts(name+"_us", us, 50, 95)
		default:
			res.setPcts(name+"_ms", d, 50, 95)
		}
		res.set(name+".allocs_per_frame", p.allocs[name]/float64(n), n)
	}
	p.usage.report(res, n)
	res.set("cull.kept_fraction", mean(p.kept), n)
	res.set("split.mean_split", mean(p.split), n)
	res.set("codec.bytes_per_frame", mean(p.encBytes), n)
	res.set("codec.key_frame_bytes", mean(p.keyBytes), len(p.keyBytes))
	res.set("bench.setup_construct_ms", ms(p.construct), 1)
	res.set("bench.setup_warmup_s", p.warmup.Seconds(), 1)
	res.spans = p.spans
}

// isolate times each layer under ProcessFrame and the decoders on their own,
// over the same inputs and budgets as the loop, and derives the sender's
// self time from the loop's process span.
func isolate(res *result, c *clip, seed int64, processMs, split float64) error {
	arr := c.video.Array
	viewer := newViewer(replayScene, seed, isolationFrames/fps)
	bw := replayBandwidth()
	in := arr.Cameras[0].Intrinsics
	tiler, err := frame.NewTiler(arr.N(), in.W, in.H)
	if err != nil {
		return err
	}
	tw, th := tiler.FrameSize()
	ccfg := vcodec.ColorConfig(tw, th)
	dcfg := depth.Config{Scheme: depth.Scaled16, Width: tw, Height: th}
	colorEnc, err := vcodec.NewEncoder(ccfg)
	if err != nil {
		return err
	}
	colorDec, err := vcodec.NewDecoder(ccfg)
	if err != nil {
		return err
	}
	depthEnc, err := depth.NewEncoder(dcfg)
	if err != nil {
		return err
	}
	depthDec, err := depth.NewDecoder(dcfg)
	if err != nil {
		return err
	}
	ladder, err := livo.NewSender(livo.SenderConfig{Array: arr, ViewParams: livo.DefaultViewParams(), Ladder: true})
	if err != nil {
		return err
	}

	durs := map[string][]float64{}
	timeIt := func(name string, f func() error) error {
		t := time.Now()
		err := f()
		durs[name] = append(durs[name], ms(time.Since(t)))
		return err
	}
	colors, depths := make([]*frame.ColorImage, arr.N()), make([]*frame.DepthImage, arr.N())
	for g := 0; g < isolationFrames; g++ {
		vt := float64(g) / fps
		views := c.at(g)
		target := int(bw.At(vt) * 1e6 / 8 / fps)
		depthBudget := int(float64(target) * split)
		fr := livo.NewFrustum(viewer.At(vt), livo.DefaultViewParams())

		var culled []livo.RGBDFrame
		var tiledColor *frame.ColorImage
		var tiledDepth *frame.DepthImage
		var colorPkt, depthPkt *vcodec.Packet
		steps := []struct {
			name string
			f    func() error
		}{
			{"cull.views_ms", func() (err error) { culled, _, err = cull.Views(arr, views, fr); return }},
			{"frame.tile_ms", func() (err error) {
				for i, v := range culled {
					colors[i], depths[i] = v.Color, v.Depth
				}
				if tiledColor, err = tiler.ComposeColor(colors); err != nil {
					return
				}
				tiledDepth, err = tiler.ComposeDepth(depths)
				return
			}},
			{"codec.vcodec.encode_color_ms", func() (err error) {
				colorPkt, err = colorEnc.Encode(vcodec.FromColor(tiledColor), target-depthBudget)
				return
			}},
			{"codec.depth.encode_ms", func() (err error) { depthPkt, err = depthEnc.Encode(tiledDepth, depthBudget); return }},
			{"codec.vcodec.decode_color_ms", func() (err error) { _, err = colorDec.Decode(colorPkt); return }},
			{"codec.depth.decode_ms", func() (err error) { _, err = depthDec.Decode(depthPkt); return }},
			{"core.sender.process_ladder_ms", func() (err error) {
				ladder.ObservePose(vt, viewer.At(vt))
				_, err = ladder.ProcessFrame(views, bw.At(vt)*1e6)
				return
			}},
		}
		for _, st := range steps {
			if err := timeIt(st.name, st.f); err != nil {
				return fmt.Errorf("isolation %s frame %d: %w", st.name, g, err)
			}
		}
	}
	med := map[string]float64{}
	for name, d := range durs {
		med[name] = median(d)
		res.set(name, med[name], len(d))
	}
	// ProcessFrame encodes the two streams side by side, so the slower one bounds it.
	enc := med["codec.vcodec.encode_color_ms"]
	if d := med["codec.depth.encode_ms"]; d > enc {
		enc = d
	}
	res.set("core.sender.self_ms", processMs-med["cull.views_ms"]-med["frame.tile_ms"]-enc, isolationFrames)
	return nil
}
