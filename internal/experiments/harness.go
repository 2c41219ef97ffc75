// Package experiments reproduces the paper's evaluation (§4): it replays
// the dataset videos over the bandwidth traces through LiVo and the
// baseline systems in virtual time and regenerates every table and figure
// (see DESIGN.md §4 for the experiment index).
//
// Scaling: experiments run at a reduced capture resolution (1 CPU core, no
// GPU). To preserve the paper's operating regime the bandwidth traces are
// scaled by the pixel ratio between the working capture and the paper's
// full rig (10 cameras at 640x576), keeping bits-per-pixel constant, and
// Draco-Oracle's compression deadline uses a compute-scale factor equal to
// the point-count ratio (full-scale clouds are ~10 MB). Reported
// throughputs are converted back to full-scale-equivalent Mbps.
package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"livo/internal/baseline"
	"livo/internal/camera"
	"livo/internal/core"
	"livo/internal/frame"
	"livo/internal/geom"
	"livo/internal/metrics"
	"livo/internal/netem"
	"livo/internal/pointcloud"
	"livo/internal/scene"
	"livo/internal/trace"
	"livo/internal/transport"
)

// paperPixels is the paper rig's per-frame depth pixel count (10 Kinects at
// 640x576), the reference for bandwidth scaling.
const paperPixels = 10 * 640 * 576

// paperPointsPerFrame approximates a full-scene cloud (~10 MB at 15 B per
// point), the reference for Draco's compute scaling.
const paperPointsPerFrame = 700_000

// Scheme identifies a system under test.
type Scheme int

// Schemes of the evaluation.
const (
	SchemeLiVo Scheme = iota
	SchemeNoCull
	SchemeNoAdapt
	SchemeStaticSplit
	SchemeDracoOracle
	SchemeMeshReduce
	SchemePerfectCull // LiVo with oracle frustum (Frustum Prediction ablation)
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeLiVo:
		return "LiVo"
	case SchemeNoCull:
		return "LiVo-NoCull"
	case SchemeNoAdapt:
		return "LiVo-NoAdapt"
	case SchemeStaticSplit:
		return "LiVo-Static"
	case SchemeDracoOracle:
		return "Draco-Oracle"
	case SchemeMeshReduce:
		return "MeshReduce"
	case SchemePerfectCull:
		return "LiVo-PerfectCull"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// Quality trades experiment fidelity against wall time.
type Quality struct {
	Cameras       int // capture rig size
	Width, Height int // per-camera resolution
	Frames        int // frames replayed per run
	MetricEvery   int // PointSSIM every k-th frame
	MetricPoints  int // PointSSIM subsample size
	Users         int // user traces per video (<=3)
	// CodecEfficiency adjusts the bandwidth scale (PixelRatio times this
	// factor) for the rate-distortion gap between the from-scratch codec
	// and NVENC H.265: the working system needs ~2x the bits for the same
	// quality, so links are scaled up accordingly to preserve the paper's
	// operating point (default 2.0; see DESIGN.md).
	CodecEfficiency float64
}

// QuickQuality is the default for tests and `go test -bench` on a laptop.
func QuickQuality() Quality {
	return Quality{Cameras: 6, Width: 96, Height: 80, Frames: 36, MetricEvery: 3, MetricPoints: 700, Users: 2}
}

// FullQuality approaches the paper's setup (slow: hours on one core).
func FullQuality() Quality {
	return Quality{Cameras: 10, Width: 320, Height: 288, Frames: 300, MetricEvery: 3, MetricPoints: 2000, Users: 3}
}

// PixelRatio returns workingPixels / paperPixels.
func (q Quality) PixelRatio() float64 {
	return float64(q.Cameras*q.Width*q.Height) / paperPixels
}

// BandwidthScale converts full-scale Mbps to the working scale: pixel
// ratio times the codec-efficiency factor.
func (q Quality) BandwidthScale() float64 {
	c := q.CodecEfficiency
	if c == 0 {
		c = 2.0
	}
	return q.PixelRatio() * c
}

func (q Quality) capture() scene.CaptureConfig {
	c := scene.DefaultCaptureConfig()
	c.Cameras = q.Cameras
	c.Width = q.Width
	c.Height = q.Height
	return c
}

// Workload is a cached per-video input: rendered frames, ground-truth
// clouds, and user traces, shared across schemes and runs.
type Workload struct {
	Name    string
	Video   *scene.Video
	Views   [][]frame.RGBDFrame
	GT      []*pointcloud.Cloud
	Users   []*trace.UserTrace
	Quality Quality
}

// LoadWorkload renders and caches one video's replay input.
func LoadWorkload(name string, q Quality) (*Workload, error) {
	v, err := scene.OpenVideo(name, q.capture())
	if err != nil {
		return nil, err
	}
	w := &Workload{Name: name, Video: v, Quality: q}
	for i := 0; i < q.Frames; i++ {
		views := v.Frame(i)
		w.Views = append(w.Views, views)
		pos, cols, err := v.Array.PointsFromViews(views)
		if err != nil {
			return nil, err
		}
		gt, err := pointcloud.FromSlices(pos, cols)
		if err != nil {
			return nil, err
		}
		w.GT = append(w.GT, gt)
	}
	users := trace.UserTraces(name, float64(q.Frames)/30+2)
	if q.Users < len(users) {
		users = users[:q.Users]
	}
	w.Users = append(w.Users, users...)
	return w, nil
}

// Array returns the capture rig.
func (w *Workload) Array() camera.Array { return w.Video.Array }

// Result aggregates one replay run.
type Result struct {
	Scheme    Scheme
	Video     string
	User      string
	Net       string
	Stalls    int
	StallRate float64
	MeanFPS   float64
	// Per-sampled-frame PointSSIM (stalled samples recorded as 0, §4.3).
	GeomPSSIM  []float64
	ColorPSSIM []float64
	// Throughput in full-scale-equivalent Mbps, and link utilization.
	TPSMbps float64
	UtilPct float64
	// MeanSplit is the average depth split (LiVo variants).
	MeanSplit float64
	// Latency is the mean per-stage latency in seconds of the LiVo variants
	// (Table 6 keys: "sender", "network", "jitter", "receiver", "e2e").
	Latency map[string]float64
}

// GeomMean returns the mean geometry PSSIM (0 if unsampled).
func (r *Result) GeomMean() float64 { return metrics.Mean(r.GeomPSSIM) }

// ColorMean returns the mean color PSSIM.
func (r *Result) ColorMean() float64 { return metrics.Mean(r.ColorPSSIM) }

// sample records one sampled frame's PointSSIM (the zero value for a stall).
func (r *Result) sample(ps metrics.PSSIM) {
	r.GeomPSSIM = append(r.GeomPSSIM, ps.Geometry)
	r.ColorPSSIM = append(r.ColorPSSIM, ps.Color)
}

// throughput sets TPSMbps and UtilPct from the bytes delivered in duration.
func (r *Result) throughput(bytes int, duration float64, q Quality, meanScaledMbps float64) {
	mbps := float64(bytes) * 8 / duration / 1e6
	r.TPSMbps = mbps / q.BandwidthScale()
	if meanScaledMbps > 0 {
		r.UtilPct = 100 * mbps / meanScaledMbps
	}
}

// modeled processing latencies (seconds), from the paper's Table 6: the
// pipelined stages add this much delay while sustaining full frame rate.
const (
	senderProcLiVo   = 0.064
	senderProcNoCull = 0.047 // no culling at the sender
	recvProcLiVo     = 0.053
	recvProcNoCull   = 0.062 // culling moves to the receiver
	// warmupFrames is the pre-roll during which the playout deadline is
	// established; those frames cannot stall.
	warmupFrames = 6
)

// RunConfig is one replay run's configuration.
type RunConfig struct {
	Workload *Workload
	User     *trace.UserTrace
	Net      *trace.Bandwidth // unscaled (Table 4 values)
	Scheme   Scheme
	// StaticSplit is used by SchemeStaticSplit.
	StaticSplit float64
	// GuardBand overrides the default 0.20 m when non-zero.
	GuardBand float64
	// FixedBandwidthMbps, when non-zero, replaces the network trace with a
	// fixed-capacity link at the given full-scale Mbps (used by the
	// bitrate sweeps of Figs 4, 18, 19, A.2).
	FixedBandwidthMbps float64
	// Seed drives metric subsampling.
	Seed int64
}

func (rc RunConfig) netName() string {
	if rc.Net != nil {
		return rc.Net.Name
	}
	return fmt.Sprintf("fixed-%.0fMbps", rc.FixedBandwidthMbps)
}

// Run dispatches to the scheme's replay engine.
func Run(rc RunConfig) (*Result, error) {
	switch rc.Scheme {
	case SchemeDracoOracle:
		return runDracoOracle(rc)
	case SchemeMeshReduce:
		return runMeshReduce(rc)
	default:
		return runLiVo(rc)
	}
}

// link builds the scaled bottleneck link for a run.
func (rc RunConfig) link() (*netem.Link, float64) {
	ratio := rc.Workload.Quality.BandwidthScale()
	if rc.Net != nil {
		scaled := rc.Net.Scale(ratio)
		l := netem.NewLink(scaled)
		return l, scaled.Stats().Mean
	}
	mbps := rc.FixedBandwidthMbps * ratio
	return netem.NewFixedLink(mbps), mbps
}

// actualFrustum is the receiver's true frustum when frame i is displayed.
func actualFrustum(rc RunConfig, displayT float64) geom.Frustum {
	return geom.NewFrustum(rc.User.At(displayT), geom.DefaultViewParams())
}

// samplePSSIM compares received vs ground truth inside the actual frustum.
func samplePSSIM(gt, got *pointcloud.Cloud, f geom.Frustum, q Quality, seed int64) metrics.PSSIM {
	return metrics.PointSSIM(gt.CullFrustum(f), got.CullFrustum(f), metrics.PSSIMOptions{MaxPoints: q.MetricPoints, K: 8, Seed: seed})
}

// runLiVo replays the LiVo variants (and the perfect-culling ablation)
// through the shipped transport (transmitter) with the playout delay pinned
// at the paper's 100 ms.
func runLiVo(rc RunConfig) (*Result, error) {
	w := rc.Workload
	q := w.Quality
	fps := 30.0
	dt := 1 / fps

	variant := core.LiVo
	switch rc.Scheme {
	case SchemeNoCull:
		variant = core.LiVoNoCull
	case SchemeNoAdapt:
		variant = core.LiVoNoAdapt
	case SchemeStaticSplit:
		variant = core.LiVoStaticSplit
	}

	sender, err := core.NewSender(core.SenderConfig{
		Variant:     variant,
		Array:       w.Array(),
		ViewParams:  geom.DefaultViewParams(),
		StaticSplit: rc.StaticSplit,
		GuardBand:   rc.GuardBand,
	})
	if err != nil {
		return nil, err
	}
	receiver, err := core.NewReceiver(core.ReceiverConfig{Array: w.Array()})
	if err != nil {
		return nil, err
	}

	link, meanScaledMbps := rc.link()
	gcc := transport.NewGCC(0.7*meanScaledMbps*1e6, 0.02*meanScaledMbps*1e6, 4*meanScaledMbps*1e6)

	senderProc, recvProc := senderProcLiVo, recvProcLiVo
	if rc.Scheme == SchemeNoCull || rc.Scheme == SchemeNoAdapt {
		senderProc, recvProc = senderProcNoCull, recvProcNoCull
	}

	res := &Result{Scheme: rc.Scheme, Video: w.Name, User: rc.User.Name, Net: rc.netName()}
	// Session setup: the receiver streams poses while the connection is
	// negotiated, so the predictor starts the session warm (§3.4's
	// predictor would otherwise mis-cull the first frames). The user is
	// standing at the trace's start pose during setup — note At() wraps
	// negative times to the trace end, which would teleport the filter.
	startPose := rc.User.At(0)
	for k := -15; k < 0; k++ {
		sender.ObservePose(float64(k)/30, startPose)
	}
	var deliveredBytes int
	var playbackBase float64
	var splitSum float64
	var netSum, jitterSum, e2eSum float64
	paired := 0
	shown := make([]bool, q.Frames)    // played on schedule
	lastNetDelay := 2 * link.PropDelay // serialization+queueing of the latest frame
	rng := rand.New(rand.NewSource(rc.Seed + 7))

	playout := &transport.PlayoutEstimator{Floor: transport.MaxPlayoutDelay}
	tx := newTransmitter(link, receiver, playout)
	tx.gcc = gcc
	tx.onPair = func(pf *core.PairedFrame, release, lastArrival float64) error {
		i := int(pf.Seq)
		capture := float64(i) * dt
		sent := capture + senderProc
		readyAt := release + recvProc
		netSum += lastArrival - sent
		jitterSum += release - lastArrival
		e2eSum += readyAt - capture
		paired++
		lastNetDelay = lastArrival - sent
		// Initial playout buffering: the playout deadline is set by the
		// worst frame of the warmup window (real players grow their
		// initial buffer during pre-roll), plus half a frame of slack.
		if i < warmupFrames {
			if base := readyAt - capture + dt/2; base > playbackBase {
				playbackBase = base
			}
			return nil
		}
		displayT := playbackBase + capture
		if readyAt > displayT+0.004 {
			return nil // stalled
		}
		shown[i] = true
		if i%q.MetricEvery != 0 {
			return nil
		}
		got, err := receiver.Reconstruct(pf, nil)
		if err != nil {
			return err
		}
		res.sample(samplePSSIM(w.GT[i], got, actualFrustum(rc, displayT), q, rc.Seed+int64(i)+int64(rng.Intn(1000))))
		return nil
	}

	for i := 0; i < q.Frames; i++ {
		now := float64(i) * dt
		if err := tx.advance(now); err != nil {
			return nil, err
		}
		if tx.feedback() {
			sender.RequestKeyFrame()
		}
		displayT := playbackBase + float64(i)*dt // known once the warmup frames have played

		// Receiver feedback: pose sampled one-way-delay ago. The RTT the
		// sender halves for its prediction horizon is the
		// *application-level* RTT (§3.4): network plus processing plus
		// jitter buffering in both directions; pose feedback itself rides
		// the lightly-loaded reverse path.
		appOneWay := senderProc + (lastNetDelay + link.PropDelay) + playout.Target() + recvProc
		sender.ObserveRTT(2 * appOneWay)
		feedbackAge := link.PropDelay + link.QueueDelay(now)/2
		poseT := math.Max(0, now-feedbackAge) // clamp: At() wraps negatives
		sender.ObservePose(now-feedbackAge, rc.User.At(poseT))
		if playbackBase > 0 {
			// The receiver reports its playout delay (as WebRTC receivers
			// do); the sender predicts the pose at actual display time:
			// from the last pose observation (feedbackAge old) to
			// capture + playout delay.
			sender.SetHorizon(playbackBase + feedbackAge)
		}
		if rc.Scheme == SchemePerfectCull {
			// Oracle: horizon 0 and exact pose at display time.
			sender.SetHorizon(0)
			sender.ObservePose(now, rc.User.At(displayT))
		}

		// Target slightly below the estimate (real senders leave headroom
		// for FEC/retransmissions and encoder overshoot).
		rate := 0.85 * gcc.Rate()
		enc, err := sender.ProcessFrame(w.Views[i], rate)
		if err != nil {
			return nil, err
		}
		splitSum += enc.Split
		deliveredBytes += len(enc.Color.Data) + len(enc.Depth.Data)
		tx.send(now+senderProc, enc.Seq, enc.Color, enc.Depth, rate)
	}
	if err := tx.advance(math.Inf(1)); err != nil {
		return nil, err
	}
	// A frame that never played on schedule — late, skipped by the jitter
	// buffer or concealed — is a stall.
	for i := warmupFrames; i < q.Frames; i++ {
		if !shown[i] {
			res.Stalls++
			if i%q.MetricEvery == 0 {
				res.sample(metrics.PSSIM{})
			}
		}
	}

	// Throughput over the interval data actually occupied the link (queued
	// bytes can drain past the last capture instant).
	duration := math.Max(float64(q.Frames)*dt, tx.lastArrival)
	res.StallRate = float64(res.Stalls) / float64(max(1, q.Frames-warmupFrames))
	res.MeanFPS = fps * (1 - res.StallRate)
	res.throughput(deliveredBytes, duration, q, meanScaledMbps)
	res.MeanSplit = splitSum / float64(q.Frames)
	// The stage latencies are means over the frames that played, so they
	// add up to the end-to-end mean.
	n := math.Max(1, float64(paired))
	res.Latency = map[string]float64{
		"sender": senderProc, "network": netSum / n, "jitter": jitterSum / n, "receiver": recvProc, "e2e": e2eSum / n,
	}
	return res, nil
}

// runDracoOracle replays the Draco-Oracle baseline at 15 fps with perfect
// culling. Compression time is scaled by the full-scale point-count ratio
// so the compute budget matches the paper's regime (package comment).
func runDracoOracle(rc RunConfig) (*Result, error) {
	w := rc.Workload
	q := w.Quality
	fps := float64(baseline.DracoOracleFPS)
	dt := 1 / fps
	oracle := baseline.NewDracoOracle()

	link, meanScaledMbps := rc.link()
	_ = link // oracle gets the target bandwidth directly (bandwidth oracle)

	res := &Result{Scheme: rc.Scheme, Video: w.Name, User: rc.User.Name, Net: rc.netName()}
	var deliveredBytes int
	frames := 0
	for i := 0; i < q.Frames; i += 2 { // 15 fps over the 30 fps capture
		now := float64(i) / 30
		frames++
		displayT := now + 0.25
		f := actualFrustum(rc, displayT) // perfect culling (§4.1)
		capacityMbps := meanScaledMbps
		if rc.Net != nil {
			capacityMbps = rc.Net.Scale(q.BandwidthScale()).At(now)
		}
		budget := int(capacityMbps * 1e6 / 8 * dt)
		// The oracle's offline table includes compression time, so it also
		// constrains quantization by the compute deadline: modeled cost is
		// 0.43 us per full-scale point at 11-bit quantization, linear in
		// octree depth (see below).
		culled := w.GT[i].CullFrustum(f)
		ptsRatioPre := float64(paperPointsPerFrame) / math.Max(1, float64(w.GT[i].Len()))
		equivPts := float64(culled.Len()) * ptsRatioPre
		qbTimeMax := 14
		if equivPts > 0 {
			qbTimeMax = int(11 * dt / (0.43e-6 * equivPts))
		}
		oracle.MaxQuantBits = qbTimeMax
		if oracle.MaxQuantBits > 14 {
			oracle.MaxQuantBits = 14
		}
		if oracle.MaxQuantBits < oracle.MinQuantBits {
			// No configuration meets the frame interval: stall.
			res.Stalls++
			if i >= warmupFrames && i%q.MetricEvery == 0 {
				res.sample(metrics.PSSIM{})
			}
			continue
		}
		dr, err := oracle.ProcessFrame(w.GT[i], f, budget)
		if err != nil {
			return nil, err
		}
		// Compute budget: the paper measures Draco at ~300 ms for a 700k
		// point frame (§1) at its default 11-bit quantization, i.e.
		// ~0.43 µs/point. Model the full-scale-equivalent compression time
		// from the culled point count and the chosen quantization depth
		// (octree levels scale the work) so the stall behaviour does not
		// depend on this machine's speed (DESIGN.md).
		stalled := dr.Stalled
		sampled := i >= warmupFrames && i%q.MetricEvery == 0
		if stalled {
			res.Stalls++
			if sampled {
				res.sample(metrics.PSSIM{})
			}
			continue
		}
		deliveredBytes += dr.Bytes
		if sampled {
			res.sample(samplePSSIM(w.GT[i], dr.Decoded, f, q, rc.Seed+int64(i)))
		}
	}
	res.StallRate = float64(res.Stalls) / float64(frames)
	res.MeanFPS = fps * (1 - res.StallRate)
	res.throughput(deliveredBytes, float64(q.Frames)/30, q, meanScaledMbps)
	return res, nil
}

// runMeshReduce replays the MeshReduce baseline: indirect adaptation from
// the trace average, reliable transport, sagging frame rate instead of
// stalls (§4.3, §4.4).
func runMeshReduce(rc RunConfig) (*Result, error) {
	w := rc.Workload
	q := w.Quality
	mr := baseline.NewMeshReduce(w.Array())
	_, meanScaledMbps := rc.link()
	if err := mr.Configure(w.Views[0], meanScaledMbps*1e6); err != nil {
		return nil, err
	}

	res := &Result{Scheme: rc.Scheme, Video: w.Name, User: rc.User.Name, Net: rc.netName()}
	rng := rand.New(rand.NewSource(rc.Seed + 3))
	var deliveredBytes int
	now := 0.0
	duration := float64(q.Frames) / 30
	frames := 0
	samples := 0
	for now < duration {
		idx := int(now * 30)
		if idx >= len(w.Views) {
			break
		}
		capacityMbps := meanScaledMbps
		if rc.Net != nil {
			capacityMbps = rc.Net.Scale(q.BandwidthScale()).At(now)
		}
		mres, err := mr.ProcessFrame(w.Views[idx], capacityMbps*1e6)
		if err != nil {
			return nil, err
		}
		deliveredBytes += mres.Bytes
		frames++
		// Sample quality on the same cadence as the other schemes.
		if idx >= warmupFrames && samples*q.MetricEvery <= frames {
			samples++
			displayT := now + 0.25
			f := actualFrustum(rc, displayT)
			gt := w.GT[idx]
			got := mres.Mesh.SamplePoints(gt.Len(), rng)
			res.sample(samplePSSIM(gt, got, f, q, rc.Seed+int64(idx)))
		}
		// Reliable transport: the next capture waits for the slower of the
		// frame interval and the transmission (frame rate sags, no stalls).
		step := math.Max(1.0/float64(mr.FPS), mres.TxTime)
		now += step
	}
	res.StallRate = 0
	if frames > 0 {
		res.MeanFPS = float64(frames) / duration
	}
	res.throughput(deliveredBytes, duration, q, meanScaledMbps)
	return res, nil
}
