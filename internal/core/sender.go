// Package core assembles LiVo's sender and receiver pipelines (Fig 2).
//
// Sender, per frame: predict the receiver frustum (Kalman + guard band,
// §3.4) → cull the N RGB-D views in pixel space, straight into their tiles
// of one large color and one large depth frame (§3.2) → stamp
// frame-sequence markers (§A.1) → encode the color frame with the 8-bit
// codec and the depth frame with the scaled 16-bit Y codec, splitting the
// bandwidth budget adaptively between the two streams (§3.3).
//
// Receiver: decode each stream straight into its image, pair the decoded
// color/depth frames by their in-band sequence markers, zero the marker
// strip, extract per-camera views, reconstruct the point cloud in the
// global frame, voxelize, and cull to the current (actual) frustum (§A.1).
package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"livo/internal/camera"
	"livo/internal/codec/depth"
	"livo/internal/codec/vcodec"
	"livo/internal/cull"
	"livo/internal/frame"
	"livo/internal/frametrace"
	"livo/internal/geom"
	"livo/internal/pipeline"
	"livo/internal/split"
	"livo/internal/telemetry"
)

// Variant selects which system of the evaluation a sender behaves as.
type Variant int

// Sender variants used across §4.
const (
	// LiVo is the full system: culling + adaptive split + rate adaptation.
	LiVo Variant = iota
	// LiVoNoCull disables view culling (the Starline-inspired baseline,
	// §4.1, but keeps bandwidth adaptation).
	LiVoNoCull
	// LiVoNoAdapt disables bandwidth adaptation and culling, encoding at
	// fixed quality (fixedColorQP/fixedDepthQP — Starline's settings, §4.5).
	LiVoNoAdapt
	// LiVoStaticSplit keeps adaptation and culling but uses a fixed
	// bandwidth split (the Fig 18/19 comparison).
	LiVoStaticSplit
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case LiVo:
		return "LiVo"
	case LiVoNoCull:
		return "LiVo-NoCull"
	case LiVoNoAdapt:
		return "LiVo-NoAdapt"
	case LiVoStaticSplit:
		return "LiVo-StaticSplit"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// Parameters the paper fixes by design or by measurement. The encoders run
// at the codec's default entropy effort and zero-motion search (§3.2), and
// the depth stream is scaled over depth.DefaultMaxMM, which the receiver
// shares.
const (
	// fps is the capture frame rate; the per-frame byte budget is the
	// bandwidth estimate divided by it.
	fps = 30
	// initialSplit is s_i, the empirical starting split from the Fig 4
	// profile (§3.3): 0.85.
	initialSplit = 0.85
	// fixedColorQP and fixedDepthQP are LiVoNoAdapt's quality settings,
	// Starline's 22 and 14 (§4.5).
	fixedColorQP = 22
	fixedDepthQP = 14
)

// SenderConfig configures a LiVo sender.
type SenderConfig struct {
	Variant Variant
	// Array is the calibrated camera rig.
	Array camera.Array
	// ViewParams are the receiver headset's viewing parameters, exchanged
	// at session setup (§3.4).
	ViewParams geom.ViewParams
	// GOP is the key-frame interval for both encoders (default 30).
	GOP int
	// GuardBand is the culling guard band ε in meters (default 0.20).
	GuardBand float64
	// StaticSplit is the fixed split for LiVoStaticSplit (default 0.8).
	StaticSplit float64
	// Ladder enables the encode-once quality ladder (DESIGN.md §8): each
	// frame is encoded at vcodec.DefaultLadder()'s rungs — full quality, a
	// requantized cheaper copy, and a quarter-resolution copy — and
	// EncodedFrame carries every rung so the relay can serve each
	// subscriber the best rung its bandwidth affords. The rate-control
	// budget and quality probes apply to rung 0; the other rungs derive
	// from its analysis (§3.2's encode-once principle).
	Ladder bool
	// ProbeRMSE computes the sender-side depth/color RMSE on every frame
	// and reports it in EncodedFrame (the Fig 4 instrumentation; normally
	// the probe only runs every k-th frame inside the splitter).
	ProbeRMSE bool
	// Telemetry receives frame-path counters and gauges (DESIGN.md §6); nil
	// uses telemetry.Default.
	Telemetry *telemetry.Registry
	// Trace, when non-nil, receives capture, cull, tile and encode hop
	// stamps for the cross-hop frame ledger (DESIGN.md §6), the sender's
	// only stage timer; nil disables tracing.
	Trace *frametrace.Ledger
}

func (c SenderConfig) withDefaults() SenderConfig {
	if c.GOP <= 0 {
		c.GOP = 30
	}
	if c.GuardBand == 0 {
		c.GuardBand = 0.20
	}
	if c.StaticSplit == 0 {
		c.StaticSplit = 0.8
	}
	return c
}

// EncodedFrame is the sender's per-frame output: one color packet and one
// depth packet plus bookkeeping the experiments record.
type EncodedFrame struct {
	Seq       uint32
	Color     *vcodec.Packet
	Depth     *vcodec.Packet
	Split     float64    // split used for this frame
	CullStats cull.Stats // pixels kept/total (Total==0 when not culling)
	// DepthRMSEmm and ColorRMSE are the sender-side quality probes in
	// millimeters and 8-bit levels; -1 unless probed this frame.
	DepthRMSEmm float64
	ColorRMSE   float64
	// ColorRungs/DepthRungs carry every quality-ladder rung, indexed like
	// vcodec.DefaultLadder(); entry 0 aliases Color/Depth. Nil when the
	// ladder is disabled.
	ColorRungs []*vcodec.Packet
	DepthRungs []*vcodec.Packet
}

// TotalBytes is the encoded size of both streams.
func (f *EncodedFrame) TotalBytes() int {
	return f.Color.SizeBytes() + f.Depth.SizeBytes()
}

// Sender is LiVo's per-site sending pipeline. Not safe for concurrent use;
// the live pipeline wraps it in a dedicated goroutine (§A.1). Internally
// the color and depth streams are encoded concurrently per tick — they use
// independent encoders, mirroring the parallel hardware encoder sessions
// LiVo drives (§3.2) — and each encoder is itself stripe-parallel.
type Sender struct {
	cfg       SenderConfig
	colorEnc  *vcodec.Encoder
	depthEnc  *depth.Encoder
	splitter  *split.Controller
	predictor *cull.FrustumPredictor
	seq       uint32
	markersOK bool

	// Quality-ladder state (cfg.Ladder): ladder encoders replace the
	// single-rung ones, and the quarter rung stages through qColor/qDepth
	// (downsampled from the *unstamped* tiles, then stamped with their own
	// marker — downsampling a stamped image would destroy the code).
	// qMarkersOK is the quarter geometry's marker fit; when false the
	// ladder derives quarters internally and receivers fall back to
	// transport sequence numbers.
	colorLad   *vcodec.LadderEncoder
	depthLad   *depth.LadderEncoder
	qMarkersOK bool
	qColor     *frame.ColorImage
	qDepth     *frame.DepthImage
	qsrcColor  *vcodec.Frame
	// refreshInFlight suppresses repeated PLI-triggered key frames until the
	// forced IDR has actually been emitted (PLI-storm guard, §A.1). forceKey
	// asks the next frame for an IDR, handed to both encoders at once so a
	// request landing mid-encode cannot split it across streams. Both are
	// atomic: PLIs arrive on the feedback goroutine.
	refreshInFlight, forceKey atomic.Bool
	// tiles culls the views straight into the two reused tiled images
	// (cull.Tiles); srcColor is the reused YCbCr staging frame for the
	// tiled color stream.
	tiles    *cull.Tiles
	srcColor *vcodec.Frame

	// Telemetry handles, resolved once in NewSender (DESIGN.md §6).
	mFrames    *telemetry.Counter
	mKeyFrames *telemetry.Counter
	mBytes     *telemetry.Counter
	gSplit     *telemetry.Gauge
	gDepthRMSE *telemetry.Gauge
	gColorRMSE *telemetry.Gauge
	gTarget    *telemetry.Gauge
	gCullKept  *telemetry.Gauge
}

// NewSender builds a sender for the given configuration.
func NewSender(cfg SenderConfig) (*Sender, error) {
	cfg = cfg.withDefaults()
	if cfg.Array.N() == 0 {
		return nil, fmt.Errorf("core: sender needs at least one camera")
	}
	in := cfg.Array.Cameras[0].Intrinsics
	tiler, err := frame.NewTiler(cfg.Array.N(), in.W, in.H)
	if err != nil {
		return nil, err
	}
	tiles, err := cull.NewTiles(cfg.Array, tiler) // tiling needs uniform views
	if err != nil {
		return nil, err
	}
	tw, th := tiler.FrameSize()

	colorCfg := vcodec.ColorConfig(tw, th)
	colorCfg.GOP = cfg.GOP
	depthCfg := depth.Config{Scheme: depth.Scaled16, Width: tw, Height: th, GOP: cfg.GOP}
	var colorEnc *vcodec.Encoder
	var depthEnc *depth.Encoder
	var colorLad *vcodec.LadderEncoder
	var depthLad *depth.LadderEncoder
	if cfg.Ladder {
		colorLad, err = vcodec.NewLadderEncoder(colorCfg, nil)
		if err != nil {
			return nil, err
		}
		depthLad, err = depth.NewLadderEncoder(depthCfg, nil)
		if err != nil {
			return nil, err
		}
	} else {
		colorEnc, err = vcodec.NewEncoder(colorCfg)
		if err != nil {
			return nil, err
		}
		depthEnc, err = depth.NewEncoder(depthCfg)
		if err != nil {
			return nil, err
		}
	}

	initial := initialSplit
	if cfg.Variant == LiVoStaticSplit {
		initial = cfg.StaticSplit
	}
	s := &Sender{
		cfg:       cfg,
		colorEnc:  colorEnc,
		depthEnc:  depthEnc,
		colorLad:  colorLad,
		depthLad:  depthLad,
		splitter:  split.New(initial),
		predictor: cull.NewFrustumPredictor(cfg.ViewParams),
		markersOK: tw >= frame.MarkerWidth && th >= frame.MarkerHeight,
		tiles:     tiles,
		srcColor:  vcodec.NewFrame(tw, th, 3),
	}
	s.predictor.Guard = cfg.GuardBand
	if cfg.Ladder {
		if qcfg, ok := colorLad.QuarterConfig(); ok {
			s.qMarkersOK = s.markersOK &&
				qcfg.Width >= frame.MarkerWidth && qcfg.Height >= frame.MarkerHeight
			if s.qMarkersOK {
				s.qColor = frame.NewColorImage(qcfg.Width, qcfg.Height)
				s.qsrcColor = vcodec.NewFrame(qcfg.Width, qcfg.Height, 3)
			}
		}
	}

	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.Default
	}
	s.mFrames = tel.Counter("livo_frames_encoded_total")
	s.mKeyFrames = tel.Counter("livo_keyframes_total")
	s.mBytes = tel.Counter("livo_sender_encoded_bytes_total")
	s.gSplit = tel.Gauge("livo_split_s")
	s.gDepthRMSE = tel.Gauge("livo_probe_depth_rmse_mm")
	s.gColorRMSE = tel.Gauge("livo_probe_color_rmse")
	s.gTarget = tel.Gauge("livo_frame_target_bytes")
	s.gCullKept = tel.Gauge("livo_cull_kept_ratio")
	return s, nil
}

// ObservePose feeds receiver pose feedback (§3.4).
func (s *Sender) ObservePose(t float64, pose geom.Pose) { s.predictor.ObservePose(t, pose) }

// ObserveRTT feeds an application-level RTT sample (§3.4).
func (s *Sender) ObserveRTT(rtt float64) { s.predictor.ObserveRTT(rtt) }

// SetHorizon overrides the prediction horizon (tests and Fig 15 sweeps).
func (s *Sender) SetHorizon(h float64) { s.predictor.SetHorizon(h) }

// Split returns the current bandwidth split.
func (s *Sender) Split() float64 { return s.splitter.Split() }

// ForceKeyFrame makes the next frame an IDR on both streams. Prefer
// RequestKeyFrame for PLI handling — this primitive has no storm guard.
func (s *Sender) ForceKeyFrame() { s.forceKey.Store(true) }

// RequestKeyFrame reacts to a PLI from the receiver (§A.1): it forces an
// IDR on both streams unless a forced refresh is already in flight, so a
// burst of PLIs (one per undecodable frame at the receiver) produces one
// recovery IDR instead of a key frame per PLI. It reports whether a new
// refresh was armed, and may be called from any goroutine.
func (s *Sender) RequestKeyFrame() bool {
	if !s.refreshInFlight.CompareAndSwap(false, true) {
		return false
	}
	s.ForceKeyFrame()
	return true
}

// cullsViews reports whether this variant culls.
func (s *Sender) cullsViews() bool {
	return s.cfg.Variant == LiVo || s.cfg.Variant == LiVoStaticSplit
}

// adapts reports whether this variant rate-adapts.
func (s *Sender) adapts() bool { return s.cfg.Variant != LiVoNoAdapt }

// ProcessFrame runs the full sender pipeline on one set of camera views
// with the given bandwidth estimate (bits/second, from congestion control).
func (s *Sender) ProcessFrame(views []frame.RGBDFrame, bandwidthBps float64) (*EncodedFrame, error) {
	if len(views) != s.cfg.Array.N() {
		return nil, fmt.Errorf("core: got %d views for %d cameras", len(views), s.cfg.Array.N())
	}
	s.cfg.Trace.StampNow(frametrace.HopCapture, 0, s.seq, frametrace.NoSub)

	// 1. View culling in pixel space (§3.4), straight into the tiles of one
	// color and one depth frame (§3.2). Non-culling variants copy the views.
	var fr *geom.Frustum
	if s.cullsViews() {
		f := s.predictor.PredictFrustum()
		fr = &f
	}
	st, err := s.tiles.Cull(views, fr)
	if err != nil {
		return nil, err
	}
	if st.Total > 0 {
		s.gCullKept.Set(float64(st.Kept) / float64(st.Total))
	}
	tiledColor, tiledDepth := s.tiles.Color, s.tiles.Depth
	s.cfg.Trace.StampNow(frametrace.HopCull, 0, s.seq, frametrace.NoSub)

	// 2. In-band sequence markers (§A.1). The quarter rung's staging images
	// are downsampled from the *unstamped* tiles first — downsampling a
	// stamped image would shred the marker code — then each resolution is
	// stamped with its own marker.
	if s.cfg.Ladder && s.qMarkersOK {
		downsampleColorBox2x(tiledColor, s.qColor)
		s.qDepth = depth.Downsample2xInto(tiledDepth, s.qDepth)
	}
	if s.markersOK {
		if err := frame.StampColorMarker(tiledColor, s.seq); err != nil {
			return nil, err
		}
		if err := frame.StampDepthMarker(tiledDepth, s.seq); err != nil {
			return nil, err
		}
	}
	if s.cfg.Ladder && s.qMarkersOK {
		if err := frame.StampColorMarker(s.qColor, s.seq); err != nil {
			return nil, err
		}
		if err := frame.StampDepthMarker(s.qDepth, s.seq); err != nil {
			return nil, err
		}
		vcodec.FromColorInto(s.qColor, s.qsrcColor)
	}

	// 3. The color codec's YCbCr input (the depth encoder maps its own).
	srcColor := s.srcColor
	vcodec.FromColorInto(tiledColor, srcColor)
	s.cfg.Trace.StampNow(frametrace.HopTile, 0, s.seq, frametrace.NoSub)

	// 4. Bandwidth split + encoding (§3.3). The two streams go through
	// independent encoders, so they encode concurrently (the split is
	// decided before either starts); packet bytes are unaffected.
	targetBytes := int(bandwidthBps / 8 / fps)
	if targetBytes < 64 {
		targetBytes = 64
	}
	evaluate := s.adapts() && s.cfg.Variant != LiVoStaticSplit && s.splitter.Tick()

	if s.forceKey.Swap(false) {
		if s.cfg.Ladder {
			s.colorLad.ForceKeyFrame()
			s.depthLad.ForceKeyFrame()
		} else {
			s.colorEnc.ForceKeyFrame()
			s.depthEnc.ForceKeyFrame()
		}
	}
	var colorPkt, depthPkt *vcodec.Packet
	var colorPkts, depthPkts []*vcodec.Packet
	var depthErr error
	var wg sync.WaitGroup
	fixedQP := !s.adapts()
	var depthBudget, colorBudget int
	if !fixedQP {
		depthBudget, colorBudget = s.splitter.Budgets(targetBytes)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		switch {
		case s.cfg.Ladder && fixedQP:
			depthPkts, depthErr = s.depthLad.EncodeLadderQP(tiledDepth, s.qDepth, fixedDepthQP)
		case s.cfg.Ladder:
			depthPkts, depthErr = s.depthLad.EncodeLadder(tiledDepth, s.qDepth, depthBudget)
		case fixedQP:
			depthPkt, depthErr = s.depthEnc.EncodeQP(tiledDepth, fixedDepthQP)
		default:
			depthPkt, depthErr = s.depthEnc.Encode(tiledDepth, depthBudget)
		}
		s.cfg.Trace.StampNow(frametrace.HopEncodeDepth, 0, s.seq, frametrace.NoSub)
	}()
	switch {
	case s.cfg.Ladder && fixedQP:
		colorPkts, err = s.colorLad.EncodeLadderQP(srcColor, s.qsrcColor, fixedColorQP)
	case s.cfg.Ladder:
		colorPkts, err = s.colorLad.EncodeLadder(srcColor, s.qsrcColor, colorBudget)
	case fixedQP:
		colorPkt, err = s.colorEnc.EncodeQP(srcColor, fixedColorQP)
	default:
		colorPkt, err = s.colorEnc.Encode(srcColor, colorBudget)
	}
	s.cfg.Trace.StampNow(frametrace.HopEncodeColor, 0, s.seq, frametrace.NoSub)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	if depthErr != nil {
		return nil, depthErr
	}
	if s.cfg.Ladder {
		colorPkt, depthPkt = colorPkts[0], depthPkts[0]
	}

	// 5. Quality probe every k frames: compare the encoder-side
	// reconstructions to the sources and walk the split (§3.3).
	depthRMSE, colorRMSE := -1.0, -1.0
	if evaluate || s.cfg.ProbeRMSE {
		var colorRecon *vcodec.Frame
		var depthRecon *frame.DepthImage
		if s.cfg.Ladder {
			colorRecon = s.colorLad.Encoder().LastRecon()
			depthRecon = s.depthLad.LastReconDepth()
		} else {
			colorRecon = s.colorEnc.LastRecon()
			depthRecon = s.depthEnc.LastReconDepth()
		}
		if colorRecon != nil && depthRecon != nil {
			colorRMSE = vcodec.PlaneRMSE(srcColor, colorRecon)
			normDepth := depthRMSENorm(tiledDepth, depthRecon, depth.DefaultMaxMM)
			if normDepth >= 0 { // negative: recon geometry mismatch, skip the probe
				depthRMSE = normDepth * depth.DefaultMaxMM
				if evaluate {
					s.splitter.Observe(normDepth, colorRMSE/255)
				}
			}
		}
	}

	if colorPkt.Key && depthPkt.Key {
		// The refresh (forced or GOP-periodic) went out: accept new PLIs.
		s.refreshInFlight.Store(false)
		s.mKeyFrames.Inc()
	}

	s.mFrames.Inc()
	encodedBytes := colorPkt.SizeBytes() + depthPkt.SizeBytes()
	if s.cfg.Ladder {
		encodedBytes = 0
		for _, p := range colorPkts {
			encodedBytes += p.SizeBytes()
		}
		for _, p := range depthPkts {
			encodedBytes += p.SizeBytes()
		}
	}
	s.mBytes.Add(int64(encodedBytes))
	s.gSplit.Set(s.splitter.Split())
	s.gTarget.SetInt(int64(targetBytes))
	if depthRMSE >= 0 {
		s.gDepthRMSE.Set(depthRMSE)
	}
	if colorRMSE >= 0 {
		s.gColorRMSE.Set(colorRMSE)
	}

	out := &EncodedFrame{
		Seq:         s.seq,
		Color:       colorPkt,
		Depth:       depthPkt,
		Split:       s.splitter.Split(),
		CullStats:   st,
		DepthRMSEmm: depthRMSE,
		ColorRMSE:   colorRMSE,
		ColorRungs:  colorPkts,
		DepthRungs:  depthPkts,
	}
	s.seq++
	return out, nil
}

// downsampleColorBox2x box-filters a color image into out, which must be
// ceil(W/2) x ceil(H/2) (the quarter rung's staging geometry).
func downsampleColorBox2x(src, out *frame.ColorImage) {
	for y := 0; y < out.H; y++ {
		for x := 0; x < out.W; x++ {
			var rs, gs, bs, n int
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					sx, sy := 2*x+dx, 2*y+dy
					if sx < src.W && sy < src.H {
						r, g, b := src.At(sx, sy)
						rs += int(r)
						gs += int(g)
						bs += int(b)
						n++
					}
				}
			}
			out.Set(x, y, uint8(rs/n), uint8(gs/n), uint8(bs/n))
		}
	}
}

// depthRMSEChunk is the fixed shard size for the parallel depth probe.
// Fixed (not derived from GOMAXPROCS) so the floating-point summation
// order is identical at any worker count.
const depthRMSEChunk = 1 << 17

// depthRMSENorm is the depth RMSE over reference-valid pixels, normalized
// by the depth range so it is comparable to color RMSE/255. It returns -1
// when the reconstruction's geometry does not match the reference (the
// probe is advisory; a mismatch must not panic the frame path). The scan
// shards across cores — it walks a full tiled depth plane on the sender
// hot path every probe tick.
func depthRMSENorm(ref, got *frame.DepthImage, maxMM float64) float64 {
	if got.W != ref.W || got.H != ref.H || len(got.Pix) < len(ref.Pix) {
		return -1
	}
	nChunks := (len(ref.Pix) + depthRMSEChunk - 1) / depthRMSEChunk
	sums := make([]float64, nChunks)
	counts := make([]int, nChunks)
	pipeline.ParFor(nChunks, func(c int) {
		lo := c * depthRMSEChunk
		hi := lo + depthRMSEChunk
		if hi > len(ref.Pix) {
			hi = len(ref.Pix)
		}
		var sum float64
		var n int
		for i := lo; i < hi; i++ {
			if ref.Pix[i] == 0 {
				continue
			}
			d := float64(int(ref.Pix[i]) - int(got.Pix[i]))
			sum += d * d
			n++
		}
		sums[c] = sum
		counts[c] = n
	})
	var sum float64
	var n int
	for c := 0; c < nChunks; c++ {
		sum += sums[c]
		n += counts[c]
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sum/float64(n)) / maxMM
}
