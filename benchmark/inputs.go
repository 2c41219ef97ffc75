package main

import (
	"fmt"
	"math/rand"
	"time"

	"livo"
	"livo/internal/metrics"
	"livo/internal/scene"
)

// clip is a workload's prerendered input: a short stretch of one dataset
// scene, played ping-pong.
type clip struct {
	video  *scene.Video
	frames [][]livo.RGBDFrame
	took   time.Duration // prerendering, net of the probes and of steal
	speed  float64       // host speed while prerendering
}

// renderClip prerenders n frames of the named scene on a cams×w×h rig, so
// the timed window never pays for ray casting. Ray casting is CPU-bound, so
// the host's speed is probed after every frame, as in the timed window.
func renderClip(name string, cams, w, h, n int) (*clip, error) {
	t := startStretch()
	cfg := scene.DefaultCaptureConfig()
	cfg.Cameras, cfg.Width, cfg.Height = cams, w, h
	v, err := scene.OpenVideo(name, cfg)
	if err != nil {
		return nil, err
	}
	c := &clip{video: v}
	var probe speedProbe
	for i := 0; i < n; i++ {
		c.frames = append(c.frames, v.Frame(i))
		probe.once()
	}
	c.took, c.speed = t.took()-probe.cpu, probe.speed()
	return c, nil
}

// viewer is the workload's user: one recorded pose trace per scene, as in the
// paper's replays, which the seed enters at a different point. A trace of the
// seed's own would look at two or three other subjects in a 15 s window, and
// what is culled, and with it rate, quality and CPU time, would move by 10%
// and more from seed to seed: wider than the bounds.
type viewer struct {
	trace  *livo.UserTrace
	offset float64 // seconds into the trace at which the run starts
}

const viewerShift = 4.0 // the seed starts the trace up to this many seconds in

func newViewer(scene string, seed int64, seconds float64) viewer {
	return viewer{
		trace:  livo.SynthUserTrace(scene+"-viewer", 1, seconds+viewerShift+10, fps),
		offset: rand.New(rand.NewSource(seed)).Float64() * viewerShift,
	}
}

// At returns the pose t seconds into the run.
func (v viewer) At(t float64) livo.Pose { return v.trace.At(v.offset + t) }

// at returns the views for frame counter i.
func (c *clip) at(i int) []livo.RGBDFrame { return c.frames[pingPong(i, len(c.frames))] }

// truth builds the ground-truth cloud of frame counter i: every valid pixel
// of every view, unprojected. Only the sampled frames need one, so they are
// built when scored rather than held for the whole run.
func (c *clip) truth(i int) (*livo.PointCloud, error) {
	pos, cols, err := c.video.Array.PointsFromViews(c.at(i))
	if err != nil {
		return nil, fmt.Errorf("ground truth of frame %d: %w", i, err)
	}
	return &livo.PointCloud{Positions: pos, Colors: cols}, nil
}

// shown is one sampled frame as the viewer saw it, kept for scoring after
// the timed window: the displayed cloud (nil = never displayed), the pose it
// was displayed from, and the frame counter it stands for.
type shown struct {
	frame int
	cloud *livo.PointCloud
	pose  livo.Pose
}

// scoreShown returns the PointSSIM of each sample against ground truth, both
// culled to the viewer's frustum at display time. A sample that was never
// displayed scores 0. maxPoints caps PointSSIM's query subsample.
func scoreShown(c *clip, samples []shown, maxPoints int, seed int64) ([]metrics.PSSIM, error) {
	out := make([]metrics.PSSIM, len(samples))
	for i, s := range samples {
		if s.cloud == nil {
			continue
		}
		truth, err := c.truth(s.frame)
		if err != nil {
			return nil, err
		}
		f := livo.NewFrustum(s.pose, livo.DefaultViewParams())
		out[i] = metrics.PointSSIM(truth.CullFrustum(f), s.cloud.CullFrustum(f),
			metrics.PSSIMOptions{MaxPoints: maxPoints, K: 8, Seed: seed + int64(s.frame)})
	}
	return out, nil
}

// setQuality reports the mean score over every sample of the window, as
// "pssim_geometry"+suffix and "pssim_color"+suffix for each suffix: one
// receiver's quality goes by every name it stands for.
func setQuality(res *result, scores []metrics.PSSIM, err error, suffixes ...string) {
	if err != nil {
		res.problems = append(res.problems, err.Error())
	}
	var geo, col float64
	for _, sc := range scores {
		geo += sc.Geometry
		col += sc.Color
	}
	n := float64(len(scores))
	for _, suffix := range suffixes {
		res.set("pssim_geometry"+suffix, geo/n, len(scores))
		res.set("pssim_color"+suffix, col/n, len(scores))
	}
}
