// Package cull implements LiVo's view prediction and culling (§3.4): the
// sender predicts the receiver's frustum at arrival time (Kalman filter on
// pose + smoothed one-way delay estimate + guard band) and removes RGB-D
// pixels outside it without ever reconstructing the point cloud — the
// frustum is transformed into each camera's local coordinate frame and each
// pixel's local-space point is tested against the six planes.
package cull

import (
	"fmt"
	"sync"

	"livo/internal/camera"
	"livo/internal/frame"
	"livo/internal/geom"
	"livo/internal/pipeline"
	"livo/internal/predict"
)

// Stats summarizes one culling pass.
type Stats struct {
	Total int // valid pixels before culling
	Kept  int // valid pixels after culling
}

// KeptFraction returns Kept/Total (1 when there was nothing to cull).
func (s Stats) KeptFraction() float64 {
	if s.Total == 0 {
		return 1
	}
	return float64(s.Kept) / float64(s.Total)
}

// Views culls the per-camera RGB-D views against the frustum, returning new
// frames with out-of-frustum pixels zeroed in both depth and color. The
// input frames are not modified; nil views stay nil in the output. It runs
// the same per-camera kernel as Tiles, into per-view images.
func Views(arr camera.Array, views []frame.RGBDFrame, f geom.Frustum) ([]frame.RGBDFrame, Stats, error) {
	if err := checkViews(arr, views); err != nil {
		return nil, Stats{}, err
	}
	out := make([]frame.RGBDFrame, len(views))
	stats := make([]Stats, len(views))
	for ci, view := range views {
		if view.Depth != nil {
			out[ci] = frame.NewRGBDFrame(view.Depth.W, view.Depth.H)
		}
	}
	pipeline.ParFor(len(views), func(ci int) {
		if views[ci].Depth == nil {
			return
		}
		cam := &arr.Cameras[ci]
		local := f.Transform(cam.WorldToLocal())
		dst := out[ci]
		stats[ci] = cullView(views[ci], &cam.Intrinsics, columnFactors(cam.Intrinsics), &local,
			dst.Color.Pix, dst.Depth.Pix, cam.Intrinsics.W)
	})
	return out, sum(stats), nil
}

// Tiles culls every camera's view straight into that camera's tile of two
// tiled images (§3.2, §3.4), so no per-view copy is made. The images are
// owned by Tiles and reused by every call: each call rewrites every tile,
// and pixels outside all tiles are never written. The cameras are culled
// in parallel on pipeline.ParFor, one task per camera. Not safe for
// concurrent use.
type Tiles struct {
	arr   camera.Array
	tiler *frame.Tiler
	// Color and Depth hold the last call's tiled frames.
	Color *frame.ColorImage
	Depth *frame.DepthImage

	kx    [][]float64 // per-camera column ray factors, see columnFactors
	stats []Stats
	// Per-call state read by fn: the views, and the frustum when culling.
	views   []frame.RGBDFrame
	frustum geom.Frustum
	culling bool
	fn      func(int)
}

// NewTiles builds the tiled images for a rig whose cameras share the
// tiler's tile size.
func NewTiles(arr camera.Array, t *frame.Tiler) (*Tiles, error) {
	if arr.N() != t.N {
		return nil, fmt.Errorf("cull: %d cameras for %d tiles", arr.N(), t.N)
	}
	w, h := t.FrameSize()
	c := &Tiles{
		arr:   arr,
		tiler: t,
		Color: frame.NewColorImage(w, h),
		Depth: frame.NewDepthImage(w, h),
		kx:    make([][]float64, t.N),
		stats: make([]Stats, t.N),
	}
	for i, cam := range arr.Cameras {
		if cam.Intrinsics.W != t.TileW || cam.Intrinsics.H != t.TileH {
			return nil, fmt.Errorf("cull: camera %d is %dx%d, tiles are %dx%d",
				i, cam.Intrinsics.W, cam.Intrinsics.H, t.TileW, t.TileH)
		}
		c.kx[i] = columnFactors(cam.Intrinsics)
	}
	c.fn = c.tile
	return c, nil
}

// Cull culls views against f into the tiled images; a nil f copies every
// view whole (the non-culling variants), and a nil view leaves its tile
// black. The returned Stats are zero when f is nil.
func (c *Tiles) Cull(views []frame.RGBDFrame, f *geom.Frustum) (Stats, error) {
	if err := checkViews(c.arr, views); err != nil {
		return Stats{}, err
	}
	c.views, c.culling = views, f != nil
	if c.culling {
		c.frustum = *f
	}
	pipeline.ParFor(len(views), c.fn)
	c.views = nil
	return sum(c.stats), nil
}

// tile culls camera i's view into its tile.
func (c *Tiles) tile(i int) {
	w, _ := c.tiler.FrameSize()
	ox, oy := c.tiler.TileOrigin(i)
	off := oy*w + ox
	color, depth := c.Color.Pix[3*off:], c.Depth.Pix[off:]
	cam := &c.arr.Cameras[i]
	view := c.views[i]
	switch {
	case view.Depth == nil:
		c.stats[i] = Stats{}
		for y := 0; y < c.tiler.TileH; y++ {
			clear(color[3*y*w : 3*(y*w+c.tiler.TileW)])
			clear(depth[y*w : y*w+c.tiler.TileW])
		}
	case !c.culling:
		c.stats[i] = cullView(view, &cam.Intrinsics, nil, nil, color, depth, w)
	default:
		local := c.frustum.Transform(cam.WorldToLocal())
		c.stats[i] = cullView(view, &cam.Intrinsics, c.kx[i], &local, color, depth, w)
	}
}

// checkViews validates a frame's views against the rig: one per camera,
// and each non-nil view pixel-aligned at its camera's resolution.
func checkViews(arr camera.Array, views []frame.RGBDFrame) error {
	if len(views) != arr.N() {
		return fmt.Errorf("cull: %d views for %d cameras", len(views), arr.N())
	}
	for ci, view := range views {
		if view.Depth == nil {
			continue
		}
		if err := view.Validate(); err != nil {
			return fmt.Errorf("cull: camera %d: %w", ci, err)
		}
		in := arr.Cameras[ci].Intrinsics
		if view.Depth.W != in.W || view.Depth.H != in.H {
			return fmt.Errorf("cull: camera %d view %dx%d vs intrinsics %dx%d",
				ci, view.Depth.W, view.Depth.H, in.W, in.H)
		}
	}
	return nil
}

// columnFactors returns the per-column ray factor (u+0.5−cx)/fx of
// Intrinsics.Unproject, computed with the same operations in the same
// order, so factor*z is bit-identical to Unproject's X.
func columnFactors(in camera.Intrinsics) []float64 {
	kx := make([]float64, in.W)
	for u := range kx {
		kx[u] = (float64(u) + 0.5 - in.Cx) / in.Fx
	}
	return kx
}

// cullView is the one culling kernel. It copies view into color/depth,
// whose rows are stride pixels apart, and zeroes the pixels whose
// camera-local point falls outside local. With local nil it only copies.
// Every pixel of the destination rectangle is written.
//
// Each pixel test is six dot products on the local point (§3.4): the
// frustum was transformed into the camera's frame once, and the point is
// Intrinsics.Unproject's, with the row and column ray factors hoisted.
func cullView(view frame.RGBDFrame, in *camera.Intrinsics, kx []float64, local *geom.Frustum,
	color []uint8, depth []uint16, stride int) Stats {
	w := in.W
	var st Stats
	for v := 0; v < in.H; v++ {
		src := view.Depth.Pix[v*w : (v+1)*w]
		dd := depth[v*stride : v*stride+w]
		dc := color[3*v*stride : 3*(v*stride+w)]
		copy(dd, src)
		copy(dc, view.Color.Pix[3*v*w:3*(v+1)*w])
		if local == nil {
			continue
		}
		ky := (float64(v) + 0.5 - in.Cy) / in.Fy
		for u, mm := range src {
			if mm == 0 {
				continue
			}
			st.Total++
			z := float64(mm) / 1000
			if contains(local, geom.Vec3{X: kx[u] * z, Y: ky * z, Z: z}) {
				st.Kept++
				continue
			}
			dd[u] = 0
			px := (*[3]uint8)(dc[3*u:])
			px[0], px[1], px[2] = 0, 0, 0
		}
	}
	return st
}

// contains is geom.Frustum.Contains on a pointer: the frustum is 192
// bytes, and the kernel tests it once per valid pixel.
func contains(f *geom.Frustum, p geom.Vec3) bool {
	for i := range f.Planes {
		if f.Planes[i].SignedDistance(p) < 0 {
			return false
		}
	}
	return true
}

// sum adds per-camera stats.
func sum(stats []Stats) Stats {
	var st Stats
	for _, s := range stats {
		st.Total += s.Total
		st.Kept += s.Kept
	}
	return st
}

// FrustumPredictor combines the Kalman pose predictor with a smoothed
// one-way delay estimate and the guard band, producing the expanded frustum
// the sender culls against.
type FrustumPredictor struct {
	// mu serializes the Kalman/RTT state: pose and RTT feedback arrive on
	// the session's feedback goroutine while the frame loop predicts.
	mu     sync.Mutex
	kalman *predict.Kalman
	vp     geom.ViewParams
	// Guard is the guard band ε in meters (default 0.20 — the sweet spot
	// of Fig 15). Set it before concurrent use begins.
	Guard float64
	// srtt is the smoothed application-level RTT (seconds).
	srtt    float64
	hasRTT  bool
	horizon float64 // explicit horizon override; <0 means use srtt/2
}

// NewFrustumPredictor builds a predictor for a receiver with the given view
// parameters.
func NewFrustumPredictor(vp geom.ViewParams) *FrustumPredictor {
	return &FrustumPredictor{
		kalman:  predict.NewKalman(),
		vp:      vp,
		Guard:   0.20,
		horizon: -1,
	}
}

// ObservePose feeds a receiver pose report (timestamped with the receiver's
// capture time, seconds).
func (fp *FrustumPredictor) ObservePose(t float64, pose geom.Pose) {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	fp.kalman.Observe(t, pose)
}

// ObserveRTT feeds an application-level RTT measurement (seconds); LiVo
// halves a smoothed RTT to estimate the one-way delay Δt (§3.4).
func (fp *FrustumPredictor) ObserveRTT(rtt float64) {
	if rtt < 0 {
		return
	}
	fp.mu.Lock()
	defer fp.mu.Unlock()
	if !fp.hasRTT {
		fp.srtt = rtt
		fp.hasRTT = true
		return
	}
	fp.srtt = 0.875*fp.srtt + 0.125*rtt // TCP-style smoothing
}

// SetHorizon overrides the prediction horizon (seconds). A negative value
// restores the default srtt/2 behaviour. Used by the Fig 15 sweep, which
// varies the prediction window directly.
func (fp *FrustumPredictor) SetHorizon(h float64) {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	fp.horizon = h
}

// Horizon returns the active prediction horizon in seconds.
func (fp *FrustumPredictor) Horizon() float64 {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	return fp.horizonLocked()
}

func (fp *FrustumPredictor) horizonLocked() float64 {
	if fp.horizon >= 0 {
		return fp.horizon
	}
	return fp.srtt / 2
}

// PredictPose returns the predicted receiver pose at now + horizon.
func (fp *FrustumPredictor) PredictPose() geom.Pose {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	return fp.kalman.Predict(fp.horizonLocked())
}

// PredictFrustum returns the guard-band-expanded predicted frustum the
// sender culls against.
func (fp *FrustumPredictor) PredictFrustum() geom.Frustum {
	return geom.NewFrustum(fp.PredictPose(), fp.vp).Expand(fp.Guard)
}

// Accuracy measures culling quality for the Fig 15 sweep: of the valid
// pixels inside the receiver's *actual* frustum, what fraction survived
// culling with the predicted frustum (recall — missing pixels are holes the
// viewer sees), plus the fraction of all pixels transmitted (data volume).
type Accuracy struct {
	Recall       float64 // kept ∩ actual / actual
	SentFraction float64 // kept / total (bandwidth cost of the guard band)
}

// MeasureAccuracy evaluates a predicted frustum against the actual one on a
// set of views.
func MeasureAccuracy(arr camera.Array, views []frame.RGBDFrame, predicted, actual geom.Frustum) (Accuracy, error) {
	if len(views) != arr.N() {
		return Accuracy{}, fmt.Errorf("cull: %d views for %d cameras", len(views), arr.N())
	}
	var inActual, inBoth, kept, total int
	for ci, view := range views {
		if view.Depth == nil {
			continue
		}
		cam := arr.Cameras[ci]
		in := cam.Intrinsics
		predLocal := predicted.Transform(cam.WorldToLocal())
		actLocal := actual.Transform(cam.WorldToLocal())
		for v := 0; v < in.H; v++ {
			for u := 0; u < in.W; u++ {
				mm := view.Depth.At(u, v)
				if mm == 0 {
					continue
				}
				total++
				p := in.Unproject(u, v, float64(mm)/1000)
				inPred := predLocal.Contains(p)
				inAct := actLocal.Contains(p)
				if inPred {
					kept++
				}
				if inAct {
					inActual++
					if inPred {
						inBoth++
					}
				}
			}
		}
	}
	acc := Accuracy{Recall: 1, SentFraction: 1}
	if inActual > 0 {
		acc.Recall = float64(inBoth) / float64(inActual)
	}
	if total > 0 {
		acc.SentFraction = float64(kept) / float64(total)
	}
	return acc, nil
}
