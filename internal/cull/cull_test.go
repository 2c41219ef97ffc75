package cull

import (
	"math"
	"math/rand"
	"testing"

	"livo/internal/camera"
	"livo/internal/frame"
	"livo/internal/geom"
)

// oneCameraSetup: a single camera at (0,1,-3) looking at the origin area,
// with two objects: one near the center, one far to the side.
func oneCameraSetup() (camera.Array, []frame.RGBDFrame) {
	in := camera.NewIntrinsics(64, 48, math.Pi/2)
	cam := camera.Camera{
		Intrinsics: in,
		Pose:       geom.LookAt(geom.V3(0, 1, -3), geom.V3(0, 1, 0), geom.V3(0, 1, 0)),
		MaxRange:   6,
	}
	arr := camera.Array{Cameras: []camera.Camera{cam}}
	view := frame.NewRGBDFrame(64, 48)
	// Center blob (world ~origin): pixels near image center at 3 m.
	for v := 20; v < 28; v++ {
		for u := 28; u < 36; u++ {
			view.Depth.Set(u, v, 3000)
			view.Color.Set(u, v, 200, 100, 50)
		}
	}
	// Side blob: pixels near left edge at 3 m (world x ~ -2.8).
	for v := 20; v < 28; v++ {
		for u := 1; u < 8; u++ {
			view.Depth.Set(u, v, 3000)
			view.Color.Set(u, v, 10, 200, 10)
		}
	}
	return arr, []frame.RGBDFrame{view}
}

func TestViewsCullsOutsidePixels(t *testing.T) {
	arr, views := oneCameraSetup()
	// Narrow viewer frustum from behind the camera, looking at the center:
	// the center blob is inside, the side blob outside.
	viewer := geom.LookAt(geom.V3(0, 1, -4), geom.V3(0, 1, 0), geom.V3(0, 1, 0))
	f := geom.NewFrustum(viewer, geom.ViewParams{FovY: math.Pi / 8, Aspect: 1, Near: 0.1, Far: 10})
	culled, st, err := Views(arr, views, f)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 2*8*8-8 { // 64 + 56 pixels stamped
		t.Logf("total = %d", st.Total)
	}
	// Center blob survives.
	if culled[0].Depth.At(32, 24) == 0 {
		t.Error("center pixel was culled")
	}
	// Side blob culled, including color.
	if culled[0].Depth.At(3, 24) != 0 {
		t.Error("side pixel survived")
	}
	if r, g, b := culled[0].Color.At(3, 24); r != 0 || g != 0 || b != 0 {
		t.Error("culled pixel color not zeroed")
	}
	if st.Kept == 0 || st.Kept >= st.Total {
		t.Errorf("stats kept=%d total=%d", st.Kept, st.Total)
	}
	// Originals untouched.
	if views[0].Depth.At(3, 24) == 0 {
		t.Error("culling mutated the input")
	}
}

func TestViewsFullFrustumKeepsEverything(t *testing.T) {
	arr, views := oneCameraSetup()
	viewer := geom.LookAt(geom.V3(0, 1, -5), geom.V3(0, 1, 0), geom.V3(0, 1, 0))
	f := geom.NewFrustum(viewer, geom.ViewParams{FovY: math.Pi * 0.7, Aspect: 2, Near: 0.01, Far: 50})
	_, st, err := Views(arr, views, f)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kept != st.Total {
		t.Errorf("wide frustum culled %d of %d pixels", st.Total-st.Kept, st.Total)
	}
	if st.KeptFraction() != 1 {
		t.Errorf("kept fraction = %v", st.KeptFraction())
	}
}

func TestViewsErrors(t *testing.T) {
	arr, views := oneCameraSetup()
	f := geom.NewFrustum(geom.PoseIdentity, geom.DefaultViewParams())
	if _, _, err := Views(arr, nil, f); err == nil {
		t.Error("wrong view count accepted")
	}
	bad := []frame.RGBDFrame{frame.NewRGBDFrame(8, 8)}
	if _, _, err := Views(arr, bad, f); err == nil {
		t.Error("mismatched view size accepted")
	}
	// Nil views skipped.
	if _, st, err := Views(arr, []frame.RGBDFrame{{}}, f); err != nil || st.Total != 0 {
		t.Errorf("nil view not skipped: %v %+v", err, st)
	}
	_ = views
}

func TestCullEquivalentToPointCloudCulling(t *testing.T) {
	// LiVo's pixel-space culling must agree with culling the reconstructed
	// point cloud (the claim of §3.4: same result, no reconstruction).
	arr, views := oneCameraSetup()
	viewer := geom.LookAt(geom.V3(1, 1.5, -4), geom.V3(0, 1, 0), geom.V3(0, 1, 0))
	f := geom.NewFrustum(viewer, geom.ViewParams{FovY: math.Pi / 6, Aspect: 1.3, Near: 0.2, Far: 9})

	culled, _, err := Views(arr, views, f)
	if err != nil {
		t.Fatal(err)
	}
	cam := arr.Cameras[0]
	for v := 0; v < 48; v++ {
		for u := 0; u < 64; u++ {
			mm := views[0].Depth.At(u, v)
			if mm == 0 {
				continue
			}
			world := cam.UnprojectToWorld(u, v, mm)
			wantKept := f.Contains(world)
			gotKept := culled[0].Depth.At(u, v) != 0
			if wantKept != gotKept {
				t.Fatalf("pixel (%d,%d): world-space says kept=%v, pixel-space %v", u, v, wantKept, gotKept)
			}
		}
	}
}

func TestFrustumPredictorHorizon(t *testing.T) {
	fp := NewFrustumPredictor(geom.DefaultViewParams())
	if fp.Horizon() != 0 {
		t.Errorf("initial horizon = %v", fp.Horizon())
	}
	fp.ObserveRTT(0.2)
	if math.Abs(fp.Horizon()-0.1) > 1e-9 {
		t.Errorf("horizon after first RTT = %v, want 0.1", fp.Horizon())
	}
	// Smoothing: a spike moves the estimate only partially.
	fp.ObserveRTT(1.0)
	h := fp.Horizon()
	if h <= 0.1 || h >= 0.5 {
		t.Errorf("smoothed horizon = %v", h)
	}
	fp.ObserveRTT(-1) // ignored
	if fp.Horizon() != h {
		t.Error("negative RTT not ignored")
	}
	fp.SetHorizon(0.3)
	if fp.Horizon() != 0.3 {
		t.Error("SetHorizon ignored")
	}
	fp.SetHorizon(-1)
	if fp.Horizon() != h {
		t.Error("horizon override not cleared")
	}
}

func TestFrustumPredictorTracksMotion(t *testing.T) {
	fp := NewFrustumPredictor(geom.DefaultViewParams())
	fp.ObserveRTT(0.2) // 100 ms horizon
	// Viewer translating at constant velocity.
	vel := geom.V3(0.8, 0, 0)
	for i := 0; i <= 60; i++ {
		tm := float64(i) / 30
		fp.ObservePose(tm, geom.Pose{Position: vel.Scale(tm), Rotation: geom.QuatIdentity})
	}
	pred := fp.PredictPose()
	want := vel.Scale(2.0 + 0.1)
	if pred.Position.Dist(want) > 0.05 {
		t.Errorf("predicted %v, want ~%v", pred.Position, want)
	}
	// The predicted frustum with guard band contains what the actual
	// near-future frustum contains (probe a few points).
	actual := geom.NewFrustum(geom.Pose{Position: want, Rotation: geom.QuatIdentity}, geom.DefaultViewParams())
	predicted := fp.PredictFrustum()
	probes := []geom.Vec3{
		want.Add(geom.V3(0, 0, 2)),
		want.Add(geom.V3(0.5, 0.2, 3)),
		want.Add(geom.V3(-1, -0.3, 4)),
	}
	for _, p := range probes {
		if actual.Contains(p) && !predicted.Contains(p) {
			t.Errorf("guard-banded prediction missed %v", p)
		}
	}
}

func TestMeasureAccuracyPerfectPrediction(t *testing.T) {
	arr, views := oneCameraSetup()
	viewer := geom.LookAt(geom.V3(0, 1, -4), geom.V3(0, 1, 0), geom.V3(0, 1, 0))
	f := geom.NewFrustum(viewer, geom.ViewParams{FovY: math.Pi / 4, Aspect: 1, Near: 0.1, Far: 10})
	acc, err := MeasureAccuracy(arr, views, f, f)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Recall != 1 {
		t.Errorf("perfect prediction recall = %v", acc.Recall)
	}
}

func TestMeasureAccuracyGuardBandTradeoff(t *testing.T) {
	// Fig 15's tradeoff: larger guard bands raise recall and raise the
	// fraction of points sent.
	arr, views := oneCameraSetup()
	actualPose := geom.LookAt(geom.V3(0.3, 1.1, -4), geom.V3(0, 1, 0), geom.V3(0, 1, 0))
	predictedPose := geom.LookAt(geom.V3(0, 1, -4), geom.V3(0.2, 1, 0), geom.V3(0, 1, 0))
	vp := geom.ViewParams{FovY: math.Pi / 7, Aspect: 1, Near: 0.1, Far: 10}
	actual := geom.NewFrustum(actualPose, vp)
	base := geom.NewFrustum(predictedPose, vp)

	var prevRecall, prevSent float64 = -1, -1
	for _, guard := range []float64{0, 0.1, 0.3, 0.5} {
		acc, err := MeasureAccuracy(arr, views, base.Expand(guard), actual)
		if err != nil {
			t.Fatal(err)
		}
		if acc.Recall < prevRecall-1e-9 {
			t.Errorf("guard %v lowered recall: %v < %v", guard, acc.Recall, prevRecall)
		}
		if acc.SentFraction < prevSent-1e-9 {
			t.Errorf("guard %v lowered sent fraction: %v < %v", guard, acc.SentFraction, prevSent)
		}
		prevRecall, prevSent = acc.Recall, acc.SentFraction
	}
	if prevRecall < 0.99 {
		t.Errorf("recall at 50 cm guard = %v, want ~1", prevRecall)
	}
}

func TestMeasureAccuracyErrors(t *testing.T) {
	arr, _ := oneCameraSetup()
	f := geom.NewFrustum(geom.PoseIdentity, geom.DefaultViewParams())
	if _, err := MeasureAccuracy(arr, nil, f, f); err == nil {
		t.Error("wrong view count accepted")
	}
}

// TestTilesMatchViewsCompose holds the fused cull-into-tiles pass to
// Views followed by Tiler.Compose*, byte for byte, over random frusta and
// view contents on a rig with an empty grid slot. Views come and go: a
// view present on one frame is nil on the next, and a marker-like strip is
// scribbled over the reused tiles between frames, so a tile that is not
// fully rewritten shows as stale pixels. Every third frame copies without
// culling (the non-culling variants).
func TestTilesMatchViewsCompose(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	in := camera.NewIntrinsics(37, 21, math.Pi/2)
	arr := camera.NewRing(5, 2.6, 1.5, 1.0, in, 6)
	tiler, err := frame.NewTiler(arr.N(), in.W, in.H)
	if err != nil {
		t.Fatal(err)
	}
	tiles, err := NewTiles(arr, tiler)
	if err != nil {
		t.Fatal(err)
	}
	blank := frame.NewRGBDFrame(in.W, in.H)
	var culled, kept int
	for fi := 0; fi < 24; fi++ {
		views := make([]frame.RGBDFrame, arr.N())
		for i := range views {
			if rng.Intn(4) == 0 || (i == 2 && fi%2 == 1) { // camera 2 drops out every other frame
				continue
			}
			views[i] = frame.NewRGBDFrame(in.W, in.H)
			rng.Read(views[i].Color.Pix)
			for p := range views[i].Depth.Pix {
				if rng.Intn(5) > 0 {
					views[i].Depth.Pix[p] = uint16(300 + rng.Intn(5700))
				}
			}
		}
		viewer := geom.LookAt(
			geom.V3(rng.Float64()*4-2, 0.5+rng.Float64()*2, rng.Float64()*4-2),
			geom.V3(rng.Float64()-0.5, 1, rng.Float64()-0.5), geom.V3(0, 1, 0))
		f := geom.NewFrustum(viewer, geom.ViewParams{
			FovY: 0.3 + rng.Float64()*1.2, Aspect: 0.8 + rng.Float64(), Near: 0.05, Far: 2 + rng.Float64()*6,
		}).Expand(rng.Float64() * 0.3)
		fr := &f
		if fi%3 == 2 {
			fr = nil
		}

		got, err := tiles.Cull(views, fr)
		if err != nil {
			t.Fatal(err)
		}
		ref, want := views, Stats{}
		if fr != nil {
			if ref, want, err = Views(arr, views, f); err != nil {
				t.Fatal(err)
			}
		}
		colors := make([]*frame.ColorImage, arr.N())
		depths := make([]*frame.DepthImage, arr.N())
		for i, v := range ref {
			if v.Depth == nil {
				v = blank
			}
			colors[i], depths[i] = v.Color, v.Depth
		}
		wantColor, err := tiler.ComposeColor(colors)
		if err != nil {
			t.Fatal(err)
		}
		wantDepth, err := tiler.ComposeDepth(depths)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("frame %d: stats %+v, Views says %+v", fi, got, want)
		}
		for i := range wantDepth.Pix {
			if tiles.Depth.Pix[i] != wantDepth.Pix[i] {
				t.Fatalf("frame %d: depth sample %d = %d, Views+Compose %d", fi, i, tiles.Depth.Pix[i], wantDepth.Pix[i])
			}
		}
		for i := range wantColor.Pix {
			if tiles.Color.Pix[i] != wantColor.Pix[i] {
				t.Fatalf("frame %d: color byte %d = %d, Views+Compose %d", fi, i, tiles.Color.Pix[i], wantColor.Pix[i])
			}
		}
		culled += want.Total - want.Kept
		kept += want.Kept

		// Scribble over the top rows, where the sender stamps its marker.
		for y := 0; y < min(frame.MarkerHeight, in.H); y++ {
			w := tiles.Color.W
			rng.Read(tiles.Color.Pix[3*y*w : 3*(y+1)*w])
			for x := 0; x < w; x++ {
				tiles.Depth.Pix[y*w+x] = uint16(rng.Intn(65536))
			}
		}
	}
	if culled == 0 || kept == 0 {
		t.Fatalf("the frusta culled %d and kept %d pixels; the test needs both", culled, kept)
	}
}

func TestTilesErrors(t *testing.T) {
	arr, views := oneCameraSetup()
	in := arr.Cameras[0].Intrinsics
	tiler, err := frame.NewTiler(1, in.W, in.H)
	if err != nil {
		t.Fatal(err)
	}
	tiles, err := NewTiles(arr, tiler)
	if err != nil {
		t.Fatal(err)
	}
	f := geom.NewFrustum(geom.PoseIdentity, geom.DefaultViewParams())
	if _, err := tiles.Cull(nil, &f); err == nil {
		t.Error("wrong view count accepted")
	}
	if _, err := tiles.Cull([]frame.RGBDFrame{frame.NewRGBDFrame(8, 8)}, &f); err == nil {
		t.Error("mismatched view size accepted")
	}
	if _, err := tiles.Cull(views, &f); err != nil {
		t.Error(err)
	}
	small, _ := frame.NewTiler(1, 8, 8)
	if _, err := NewTiles(arr, small); err == nil {
		t.Error("tiles smaller than the cameras accepted")
	}
	two, _ := frame.NewTiler(2, in.W, in.H)
	if _, err := NewTiles(arr, two); err == nil {
		t.Error("tile count differing from the camera count accepted")
	}
}
