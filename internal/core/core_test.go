package core

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"livo/internal/codec/vcodec"
	"livo/internal/frame"
	"livo/internal/geom"
	"livo/internal/metrics"
	"livo/internal/pointcloud"
	"livo/internal/scene"
)

// testVideo opens a small-rig capture of office1: 4 cameras at 80x64 so
// tests stay fast (tiled frame 160x128, markers disabled).
func testVideo(t *testing.T, name string) *scene.Video {
	t.Helper()
	cfg := scene.CaptureConfig{
		Cameras: 4, Width: 80, Height: 64,
		HFov:       math.Pi * 75 / 180,
		RingRadius: 2.6, RingHeight: 1.5, MaxRange: 6,
	}
	v, err := scene.OpenVideo(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// markerVideo uses 10 cameras at 80x64: tiled 320x192, markers active.
func markerVideo(t *testing.T) *scene.Video {
	t.Helper()
	cfg := scene.CaptureConfig{
		Cameras: 10, Width: 80, Height: 64,
		HFov:       math.Pi * 75 / 180,
		RingRadius: 2.6, RingHeight: 1.5, MaxRange: 6,
	}
	v, err := scene.OpenVideo("toddler4", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func viewerPose() geom.Pose {
	return geom.LookAt(geom.V3(0, 1.5, 2.4), geom.V3(0, 0.9, 0), geom.V3(0, 1, 0))
}

func newPair(t *testing.T, v *scene.Video, variant Variant) (*Sender, *Receiver) {
	t.Helper()
	s, err := NewSender(SenderConfig{
		Variant:    variant,
		Array:      v.Array,
		ViewParams: geom.DefaultViewParams(),
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiver(ReceiverConfig{Array: v.Array})
	if err != nil {
		t.Fatal(err)
	}
	return s, r
}

func TestSenderReceiverEndToEnd(t *testing.T) {
	v := testVideo(t, "office1")
	s, r := newPair(t, v, LiVo)
	pose := viewerPose()
	s.ObservePose(0, pose)
	s.ObserveRTT(0.1)

	views := v.Frame(0)
	enc, err := s.ProcessFrame(views, 40e6)
	if err != nil {
		t.Fatal(err)
	}
	if enc.TotalBytes() == 0 {
		t.Fatal("empty encoding")
	}
	pf1, err := r.PushColor(enc.Color)
	if err != nil {
		t.Fatal(err)
	}
	if pf1 != nil {
		t.Fatal("color alone should not pair")
	}
	pf, err := r.PushDepth(enc.Depth)
	if err != nil {
		t.Fatal(err)
	}
	if pf == nil {
		t.Fatal("depth did not complete the pair")
	}
	if pf.Seq != 0 {
		t.Errorf("seq = %d", pf.Seq)
	}
	cloud, err := r.Reconstruct(pf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cloud.Len() == 0 {
		t.Fatal("empty reconstruction")
	}
	// Quality versus the ground truth *culled* cloud: build ground truth
	// from the original views culled to the same predicted frustum.
	f := s.predictor.PredictFrustum()
	pos, cols, err := v.Array.PointsFromViews(views)
	if err != nil {
		t.Fatal(err)
	}
	gt, _ := pointcloud.FromSlices(pos, cols)
	gtCulled := gt.CullFrustum(f)
	got := cloud.CullFrustum(f)
	ps := metrics.PointSSIM(gtCulled, got, metrics.PSSIMOptions{MaxPoints: 600})
	if ps.Geometry < 60 {
		t.Errorf("reconstruction PSSIM geometry = %v", ps.Geometry)
	}
}

func TestCullingReducesBytes(t *testing.T) {
	v := testVideo(t, "pizza1")
	pose := geom.LookAt(geom.V3(0.4, 1.4, 1.7), geom.V3(0, 1.0, 0), geom.V3(0, 1, 0))
	vp := geom.ViewParams{FovY: math.Pi / 4, Aspect: 1.1, Near: 0.1, Far: 8}

	run := func(variant Variant) int {
		s, err := NewSender(SenderConfig{Variant: variant, Array: v.Array, ViewParams: vp})
		if err != nil {
			t.Fatal(err)
		}
		s.ObservePose(0, pose)
		s.SetHorizon(0)
		// Fixed QP so byte difference reflects culled content, not rate
		// control: use NoAdapt for both... but NoAdapt disables culling.
		// Instead use adaptive with a huge budget; the encoders will hit
		// quality limits and size tracks content.
		total := 0
		for i := 0; i < 3; i++ {
			enc, err := s.ProcessFrame(v.Frame(i), 200e6)
			if err != nil {
				t.Fatal(err)
			}
			total += enc.TotalBytes()
			if variant == LiVo && enc.CullStats.Total == 0 {
				t.Fatal("LiVo did not cull")
			}
			if variant == LiVoNoCull && enc.CullStats.Total != 0 {
				t.Fatal("NoCull culled")
			}
		}
		return total
	}
	culled := run(LiVo)
	full := run(LiVoNoCull)
	if culled >= full {
		t.Errorf("culling did not reduce bytes: %d vs %d", culled, full)
	}
}

func TestNoAdaptIgnoresBandwidth(t *testing.T) {
	v := testVideo(t, "office1")
	s, _ := newPair(t, v, LiVoNoAdapt)
	views := v.Frame(0)
	enc1, err := s.ProcessFrame(views, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := newPair(t, v, LiVoNoAdapt)
	enc2, err := s2.ProcessFrame(views, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if enc1.TotalBytes() != enc2.TotalBytes() {
		t.Errorf("NoAdapt sizes differ with bandwidth: %d vs %d", enc1.TotalBytes(), enc2.TotalBytes())
	}
	if enc1.Color.QP != 22 || enc1.Depth.QP != 14 {
		t.Errorf("NoAdapt QPs = %d/%d, want 22/14", enc1.Color.QP, enc1.Depth.QP)
	}
}

func TestAdaptiveTracksBandwidth(t *testing.T) {
	v := testVideo(t, "office1")
	s, _ := newPair(t, v, LiVoNoCull)
	// Budgets chosen below the content's max-quality cost so rate control
	// actually binds (the tiny test frames saturate around ~10 KB).
	var highBytes, lowBytes int
	for i := 0; i < 8; i++ {
		enc, err := s.ProcessFrame(v.Frame(i), 1.5e6)
		if err != nil {
			t.Fatal(err)
		}
		if i >= 5 && !enc.Color.Key {
			highBytes = enc.TotalBytes()
		}
	}
	for i := 8; i < 16; i++ {
		enc, err := s.ProcessFrame(v.Frame(i), 0.15e6)
		if err != nil {
			t.Fatal(err)
		}
		if i >= 13 && !enc.Color.Key {
			lowBytes = enc.TotalBytes()
		}
	}
	if lowBytes == 0 || highBytes == 0 {
		t.Fatal("missing measurements")
	}
	if float64(lowBytes) > 0.5*float64(highBytes) {
		t.Errorf("10x bandwidth drop only changed %d -> %d bytes", highBytes, lowBytes)
	}
}

func TestSplitStaysInRange(t *testing.T) {
	v := testVideo(t, "dance5")
	s, _ := newPair(t, v, LiVo)
	s.ObservePose(0, viewerPose())
	for i := 0; i < 12; i++ {
		if _, err := s.ProcessFrame(v.Frame(i), 30e6); err != nil {
			t.Fatal(err)
		}
		if sp := s.Split(); sp < 0.5 || sp > 0.9 {
			t.Fatalf("split out of range: %v", sp)
		}
	}
}

func TestStaticSplitNeverMoves(t *testing.T) {
	v := testVideo(t, "office1")
	s, err := NewSender(SenderConfig{
		Variant: LiVoStaticSplit, Array: v.Array,
		ViewParams: geom.DefaultViewParams(), StaticSplit: 0.7,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.ObservePose(0, viewerPose())
	for i := 0; i < 7; i++ {
		if _, err := s.ProcessFrame(v.Frame(i), 30e6); err != nil {
			t.Fatal(err)
		}
		if s.Split() != 0.7 {
			t.Fatalf("static split moved to %v", s.Split())
		}
	}
}

func TestMarkerPairingOutOfOrder(t *testing.T) {
	v := markerVideo(t)
	s, err := NewSender(SenderConfig{Variant: LiVoNoCull, Array: v.Array, ViewParams: geom.DefaultViewParams()})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiver(ReceiverConfig{Array: v.Array})
	if err != nil {
		t.Fatal(err)
	}
	if !s.markersOK || !r.markersOK {
		t.Fatal("marker path not active in this configuration")
	}
	var encs []*EncodedFrame
	for i := 0; i < 3; i++ {
		enc, err := s.ProcessFrame(v.Frame(i), 60e6)
		if err != nil {
			t.Fatal(err)
		}
		encs = append(encs, enc)
	}
	// Push all colors first, then depths: pairs must match by sequence.
	for _, e := range encs {
		if _, err := r.PushColor(e.Color); err != nil {
			t.Fatal(err)
		}
	}
	for i, e := range encs {
		pf, err := r.PushDepth(e.Depth)
		if err != nil {
			t.Fatal(err)
		}
		if pf == nil || pf.Seq != uint32(i) {
			t.Fatalf("pair %d wrong: %+v", i, pf)
		}
	}
	if r.SeqMismatches() != 0 {
		t.Errorf("marker/transport mismatches: %d", r.SeqMismatches())
	}
}

func TestReconstructWithFrustumAndVoxel(t *testing.T) {
	v := testVideo(t, "office1")
	s, _ := newPair(t, v, LiVoNoCull)
	r2, err := NewReceiver(ReceiverConfig{Array: v.Array, VoxelSize: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := s.ProcessFrame(v.Frame(0), 50e6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.PushColor(enc.Color); err != nil {
		t.Fatal(err)
	}
	pf, err := r2.PushDepth(enc.Depth)
	if err != nil || pf == nil {
		t.Fatal(err)
	}
	full, err := r2.Reconstruct(pf, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The returned cloud is a receiver-owned arena overwritten by the next
	// Reconstruct call; Clone to compare across calls.
	full = full.Clone()
	f := geom.NewFrustum(viewerPose(), geom.ViewParams{FovY: math.Pi / 5, Aspect: 1, Near: 0.1, Far: 8})
	culled, err := r2.Reconstruct(pf, &f)
	if err != nil {
		t.Fatal(err)
	}
	if culled.Len() >= full.Len() {
		t.Errorf("frustum culling did not reduce cloud: %d vs %d", culled.Len(), full.Len())
	}
	for _, p := range culled.Positions {
		if !f.Contains(p) {
			t.Fatal("culled cloud contains out-of-frustum point")
		}
	}
}

func TestSenderErrors(t *testing.T) {
	if _, err := NewSender(SenderConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	v := testVideo(t, "office1")
	s, _ := newPair(t, v, LiVo)
	if _, err := s.ProcessFrame(nil, 10e6); err == nil {
		t.Error("wrong view count accepted")
	}
	if _, err := NewReceiver(ReceiverConfig{}); err == nil {
		t.Error("empty receiver config accepted")
	}
}

func TestForceKeyFrameBothStreams(t *testing.T) {
	v := testVideo(t, "office1")
	s, _ := newPair(t, v, LiVoNoCull)
	if _, err := s.ProcessFrame(v.Frame(0), 30e6); err != nil {
		t.Fatal(err)
	}
	e2, err := s.ProcessFrame(v.Frame(1), 30e6)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Color.Key || e2.Depth.Key {
		t.Fatal("unexpected key frames")
	}
	s.ForceKeyFrame()
	e3, err := s.ProcessFrame(v.Frame(2), 30e6)
	if err != nil {
		t.Fatal(err)
	}
	if !e3.Color.Key || !e3.Depth.Key {
		t.Error("ForceKeyFrame did not affect both streams")
	}
}

// TestRequestKeyFrameStorm: PLIs from a second goroutine while frames
// encode — the feedback loop against SendViews — arm one refresh at a time,
// and each armed refresh is exactly one IDR on both streams: never a key
// frame on one stream alone, never an IDR nobody asked for, never a request
// lost. The bursts come 0–39 ms apart, so some land mid-encode, where one
// stream's rate-control retry would pick up a request the other stream's
// encode had already passed. Run it under -race.
func TestRequestKeyFrameStorm(t *testing.T) {
	v := testVideo(t, "office1")
	s, err := NewSender(SenderConfig{Variant: LiVoNoCull, Array: v.Array, ViewParams: geom.DefaultViewParams(), GOP: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ProcessFrame(v.Frame(0), 4e6); err != nil {
		t.Fatal(err)
	}
	var plis, armed atomic.Int64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for k := 0; k < 3; k++ { // a receiver re-sends PLIs in bursts
				plis.Add(1)
				if s.RequestKeyFrame() {
					armed.Add(1)
				}
			}
			time.Sleep(time.Duration(plis.Load()*7919%40) * time.Millisecond)
		}
	}()
	idrs := 0
	encode := func(i int) {
		enc, err := s.ProcessFrame(v.Frame(i), 1e6)
		if err != nil {
			t.Fatal(err)
		}
		if enc.Color.Key != enc.Depth.Key {
			t.Fatalf("frame %d: colour key %v, depth key %v: the refresh split across streams", enc.Seq, enc.Color.Key, enc.Depth.Key)
		}
		if enc.Color.Key {
			idrs++
		}
	}
	i := 1
	for ; i < 24 || armed.Load() < 4; i++ {
		if i > 600 {
			t.Fatalf("vacuous: %d refreshes armed in %d frames", armed.Load(), i)
		}
		encode(i)
	}
	close(stop)
	<-done
	encode(i) // a refresh armed during the last frame goes out here
	t.Logf("%d PLIs armed %d refreshes; %d IDRs", plis.Load(), armed.Load(), idrs)
	if plis.Load() <= armed.Load() || armed.Load() < 2 {
		t.Fatalf("vacuous: %d PLIs armed %d refreshes", plis.Load(), armed.Load())
	}
	if int64(idrs) != armed.Load() {
		t.Fatalf("%d refreshes armed, %d IDRs encoded; want one each", armed.Load(), idrs)
	}
}

func TestVariantStrings(t *testing.T) {
	if LiVo.String() != "LiVo" || LiVoNoCull.String() != "LiVo-NoCull" ||
		LiVoNoAdapt.String() != "LiVo-NoAdapt" || LiVoStaticSplit.String() != "LiVo-StaticSplit" {
		t.Error("variant names wrong")
	}
	if Variant(42).String() == "" {
		t.Error("unknown variant should print")
	}
}

func TestReceiverDropsStaleUnpairedFrames(t *testing.T) {
	// If one stream skips frames, the other's unpaired decodes must not
	// accumulate forever (§A.1: LiVo simply skips the frame).
	v := testVideo(t, "office1")
	s, r := newPair(t, v, LiVoNoCull)
	var depths []*EncodedFrame
	for i := 0; i < 95; i++ {
		enc, err := s.ProcessFrame(v.Frame(i%4), 20e6)
		if err != nil {
			t.Fatal(err)
		}
		// Deliver only the color stream; depth packets "lost".
		if _, err := r.PushColor(enc.Color); err != nil {
			t.Fatal(err)
		}
		depths = append(depths, enc)
	}
	// The oldest unpaired color frames must have been garbage-collected:
	// delivering their depth now (a key frame, so it decodes) should NOT
	// produce a pair.
	pf, err := r.PushDepth(depths[0].Depth)
	if err != nil {
		t.Fatal(err)
	}
	if pf != nil {
		t.Error("stale frame 0 still paired after 95 frames")
	}
	// A delta frame against a stale reference is refused outright rather
	// than decoded into silent drift (reference-generation check, §A.1).
	if _, err := r.PushDepth(depths[94].Depth); !errors.Is(err, vcodec.ErrStaleReference) {
		t.Errorf("stale delta frame: got %v, want ErrStaleReference", err)
	}
	// A recent key frame restarts the prediction chain and still pairs.
	pf, err = r.PushDepth(depths[90].Depth)
	if err != nil {
		t.Fatal(err)
	}
	if pf == nil {
		t.Error("recent key frame failed to pair")
	}
}

func TestSenderGuardBandConfigurable(t *testing.T) {
	v := testVideo(t, "office1")
	s, err := NewSender(SenderConfig{
		Variant: LiVo, Array: v.Array,
		ViewParams: geom.DefaultViewParams(), GuardBand: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.ObservePose(0, viewerPose())
	s.SetHorizon(0)
	wide, err := s.ProcessFrame(v.Frame(0), 40e6)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := NewSender(SenderConfig{
		Variant: LiVo, Array: v.Array,
		ViewParams: geom.DefaultViewParams(), GuardBand: 0.05,
	})
	s2.ObservePose(0, viewerPose())
	s2.SetHorizon(0)
	tight, err := s2.ProcessFrame(v.Frame(0), 40e6)
	if err != nil {
		t.Fatal(err)
	}
	if wide.CullStats.Kept <= tight.CullStats.Kept {
		t.Errorf("wider guard band kept fewer pixels: %d vs %d",
			wide.CullStats.Kept, tight.CullStats.Kept)
	}
}

// TestSenderDeterministicAcrossGOMAXPROCS runs the full sender pipeline at
// different worker counts and requires byte-identical color and depth
// packets: stripe-parallel encoding must not leak scheduling order into the
// bitstream.
func TestSenderDeterministicAcrossGOMAXPROCS(t *testing.T) {
	run := func(procs int) []*EncodedFrame {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		v := testVideo(t, "office1")
		s, _ := newPair(t, v, LiVo)
		s.ObservePose(0, viewerPose())
		s.ObserveRTT(0.1)
		var out []*EncodedFrame
		for i := 0; i < 4; i++ {
			enc, err := s.ProcessFrame(v.Frame(i), 40e6)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, enc)
		}
		return out
	}
	serial := run(1)
	parallel := run(4)
	for i := range serial {
		if !bytes.Equal(serial[i].Color.Data, parallel[i].Color.Data) {
			t.Errorf("frame %d: color packet differs between GOMAXPROCS 1 and 4", i)
		}
		if !bytes.Equal(serial[i].Depth.Data, parallel[i].Depth.Data) {
			t.Errorf("frame %d: depth packet differs between GOMAXPROCS 1 and 4", i)
		}
	}
}

// TestReconstructSteadyStateAllocs pins the per-frame allocation count of
// the full reconstruction path (extract → unproject → voxelize → cull):
// after warmup every stage runs out of per-receiver arenas. GOMAXPROCS is
// pinned to 1 because ParFor's worker spawns allocate; they are not part
// of the arena story.
func TestReconstructSteadyStateAllocs(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	v := testVideo(t, "office1")
	s, _ := newPair(t, v, LiVoNoCull)
	r, err := NewReceiver(ReceiverConfig{Array: v.Array, VoxelSize: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := s.ProcessFrame(v.Frame(0), 50e6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.PushColor(enc.Color); err != nil {
		t.Fatal(err)
	}
	pf, err := r.PushDepth(enc.Depth)
	if err != nil || pf == nil {
		t.Fatal(err)
	}
	f := geom.NewFrustum(viewerPose(), geom.ViewParams{FovY: math.Pi / 3, Aspect: 1, Near: 0.1, Far: 8})
	for i := 0; i < 3; i++ { // warm the arenas
		if _, err := r.Reconstruct(pf, &f); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := r.Reconstruct(pf, &f); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("steady-state Reconstruct allocates %v objects per frame, want <= 4", allocs)
	}
}

// TestDepthRMSENormMismatch checks the probe returns its -1 sentinel on
// mismatched reconstruction geometry instead of panicking.
func TestDepthRMSENormMismatch(t *testing.T) {
	ref := frame.NewDepthImage(8, 8)
	for i := range ref.Pix {
		ref.Pix[i] = 1000
	}
	short := frame.NewDepthImage(8, 4)
	if got := depthRMSENorm(ref, short, 6000); got != -1 {
		t.Errorf("mismatched geometry: got %v, want -1", got)
	}
	same := frame.NewDepthImage(8, 8)
	if got := depthRMSENorm(ref, same, 6000); got < 0 {
		t.Errorf("matched geometry: got %v, want >= 0", got)
	}
}

// Frame-path allocation budgets, heap objects per frame at GOMAXPROCS=1
// after warm-up. Measured today: ProcessFrame 17 with or without culling
// (the culling sender made 35 while it cloned every view, the non-culling
// one 18), PushColor+PushDepth 6, Reconstruct 0. The limits leave room for
// a pooled buffer growing on unseen content, not for a per-frame buffer
// that stopped being pooled.
const (
	maxProcessFrameAllocs = 28
	maxPushAllocs         = 10
	maxReconstructAllocs  = 4
)

// TestFramePathSteadyStateAllocs replays distinct frames through sender
// encode, receiver decode/pair and reconstruction, and holds each stage to
// its budget, for a culling and a non-culling sender. Unlike
// TestReconstructSteadyStateAllocs (one paired frame, reconstructed
// repeatedly) every run sees new content, so an arena that is re-grown per
// frame shows up. GOMAXPROCS is 1 for the same reason as there: ParFor's
// worker spawns allocate and are not part of the budget.
func TestFramePathSteadyStateAllocs(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	v := testVideo(t, "dance5")
	for _, variant := range []Variant{LiVoNoCull, LiVo} {
		t.Run(variant.String(), func(t *testing.T) { framePathAllocs(t, v, variant) })
	}
}

func framePathAllocs(t *testing.T, v *scene.Video, variant Variant) {
	const warm, runs = 8, 16
	views := make([][]frame.RGBDFrame, warm+runs+1) // AllocsPerRun adds one warm-up call
	for i := range views {
		views[i] = v.Frame(i)
	}
	s, err := NewSender(SenderConfig{Variant: variant, Array: v.Array, ViewParams: geom.DefaultViewParams()})
	if err != nil {
		t.Fatal(err)
	}
	s.ObservePose(0, viewerPose())
	r, err := NewReceiver(ReceiverConfig{Array: v.Array, VoxelSize: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	f := geom.NewFrustum(viewerPose(), geom.DefaultViewParams())

	// The receive side needs each frame's packets in order, so the sender
	// pass keeps them (a packet's bytes are its own) and the receiver
	// pass replays them.
	encs := make([]*EncodedFrame, len(views))
	process := func(i int) {
		if encs[i], err = s.ProcessFrame(views[i], 50e6); err != nil {
			t.Fatal(err)
		}
	}
	var pf *PairedFrame
	push := func(i int) {
		if _, err := r.PushColor(encs[i].Color); err != nil {
			t.Fatal(err)
		}
		if pf, err = r.PushDepth(encs[i].Depth); err != nil || pf == nil {
			t.Fatalf("frame %d did not pair: %v", i, err)
		}
	}
	reconstruct := func() {
		if _, err := r.Reconstruct(pf, &f); err != nil {
			t.Fatal(err)
		}
	}
	check := func(stage string, got float64, budget int) {
		t.Logf("%s: %.0f allocs/frame", stage, got)
		if got > float64(budget) {
			t.Errorf("%s allocates %.0f objects per frame, budget %d", stage, got, budget)
		}
	}

	i := 0
	for ; i < warm; i++ {
		process(i)
	}
	check("ProcessFrame", testing.AllocsPerRun(runs, func() { process(i); i++ }), maxProcessFrameAllocs)
	if variant == LiVo && encs[i-1].CullStats.Kept == encs[i-1].CullStats.Total {
		t.Fatalf("the culling sender kept every pixel (%+v); the row must cull", encs[i-1].CullStats)
	}

	for i = 0; i < warm; i++ {
		push(i)
		reconstruct()
	}
	// Push and Reconstruct alternate per frame as in a session. Their sum
	// is measured over new frames, Reconstruct alone on the last pair; the
	// difference is the push, without breaking the decoder's frame order.
	both := testing.AllocsPerRun(runs, func() { push(i); reconstruct(); i++ })
	rec := testing.AllocsPerRun(runs, reconstruct)
	check("PushColor+PushDepth", both-rec, maxPushAllocs)
	check("Reconstruct", rec, maxReconstructAllocs)
}
