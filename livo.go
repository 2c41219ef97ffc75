// Package livo is a bandwidth-adaptive volumetric video conferencing
// library — a from-scratch Go reproduction of "LiVo: Toward
// Bandwidth-adaptive Fully-Immersive Volumetric Video Conferencing"
// (CoNEXT 2025). See DESIGN.md for the system inventory and EXPERIMENTS.md
// for the evaluation reproduction.
//
// The library streams full-scene RGB-D captures from an array of
// calibrated cameras as two rate-adaptive 2D video streams (a tiled color
// stream and a tiled 16-bit depth stream), culls content outside the
// receiver's predicted view frustum at the sender, splits the available
// bandwidth adaptively between depth and color, and reconstructs point
// clouds at the receiver.
//
// # Quick start
//
// A sender consumes per-camera RGB-D frames and emits encoded frames; a
// receiver decodes them back into point clouds:
//
//	arr := livo.NewCameraRing(10, 2.6, 1.5, 0.9, livo.NewIntrinsics(640, 576, livo.DegToRad(75)), 6)
//	s, _ := livo.NewSender(livo.SenderConfig{Array: arr, ViewParams: livo.DefaultViewParams()})
//	r, _ := livo.NewReceiver(livo.ReceiverConfig{Array: arr})
//	enc, _ := s.ProcessFrame(views, bandwidthBps) // views: one RGBDFrame per camera
//	r.PushColor(enc.Color)
//	pf, _ := r.PushDepth(enc.Depth)
//	cloud, _ := r.Reconstruct(pf, nil)
//
// For a live two-way session over UDP, see SendSession and RecvSession
// (session_send.go, session_recv.go) and the runnable programs under cmd/
// and examples/.
package livo

import (
	"math"

	"livo/internal/calib"
	"livo/internal/camera"
	"livo/internal/core"
	"livo/internal/frame"
	"livo/internal/geom"
	"livo/internal/metrics"
	"livo/internal/pointcloud"
	"livo/internal/render"
	"livo/internal/trace"
)

// --- geometry ------------------------------------------------------------

// Vec3 is a 3D vector (meters, right-handed, +Y up).
type Vec3 = geom.Vec3

// Pose is a 6-DoF rigid pose (viewer or camera).
type Pose = geom.Pose

// Quat is a rotation quaternion.
type Quat = geom.Quat

// Frustum is a view frustum (six inward-facing planes).
type Frustum = geom.Frustum

// ViewParams describes a viewing device's frustum parameters.
type ViewParams = geom.ViewParams

// V3 constructs a Vec3.
func V3(x, y, z float64) Vec3 { return geom.V3(x, y, z) }

// LookAt builds a pose at eye looking toward target.
func LookAt(eye, target, up Vec3) Pose { return geom.LookAt(eye, target, up) }

// NewFrustum builds the frustum of a viewer pose.
func NewFrustum(pose Pose, vp ViewParams) Frustum { return geom.NewFrustum(pose, vp) }

// DefaultViewParams returns typical mixed-reality headset parameters.
func DefaultViewParams() ViewParams { return geom.DefaultViewParams() }

// DegToRad converts degrees to radians.
func DegToRad(d float64) float64 { return d * math.Pi / 180 }

// --- capture -------------------------------------------------------------

// ColorImage is an 8-bit RGB image.
type ColorImage = frame.ColorImage

// DepthImage is a 16-bit depth image (millimeters; 0 = invalid).
type DepthImage = frame.DepthImage

// RGBDFrame pairs pixel-aligned color and depth from one camera.
type RGBDFrame = frame.RGBDFrame

// Intrinsics is a pinhole camera model.
type Intrinsics = camera.Intrinsics

// Camera is one calibrated RGB-D camera.
type Camera = camera.Camera

// CameraArray is a calibrated, frame-synchronized camera rig.
type CameraArray = camera.Array

// NewIntrinsics builds pinhole intrinsics from a horizontal field of view.
func NewIntrinsics(w, h int, hfovRad float64) Intrinsics {
	return camera.NewIntrinsics(w, h, hfovRad)
}

// NewCameraRing builds n cameras evenly spaced on a circle, aimed at the
// scene center — the typical capture rig (§3.2 of the paper).
func NewCameraRing(n int, radius, height, lookHeight float64, in Intrinsics, maxRange float64) CameraArray {
	return camera.NewRing(n, radius, height, lookHeight, in, maxRange)
}

// --- point clouds ----------------------------------------------------------

// PointCloud is a colored point cloud.
type PointCloud = pointcloud.Cloud

// PSSIM is a PointSSIM quality result (geometry and color, 0-100).
type PSSIM = metrics.PSSIM

// PointSSIM computes the objective 3D quality of a distorted cloud against
// a reference (higher is better; high 80s and above is generally good).
func PointSSIM(ref, dist *PointCloud) PSSIM {
	return metrics.PointSSIM(ref, dist, metrics.PSSIMOptions{})
}

// --- codec pipeline --------------------------------------------------------

// Variant selects the system behaviour (full LiVo or an ablation).
type Variant = core.Variant

// Sender variants.
const (
	VariantLiVo        = core.LiVo
	VariantNoCull      = core.LiVoNoCull
	VariantNoAdapt     = core.LiVoNoAdapt
	VariantStaticSplit = core.LiVoStaticSplit
)

// SenderConfig configures a Sender.
type SenderConfig = core.SenderConfig

// ReceiverConfig configures a Receiver.
type ReceiverConfig = core.ReceiverConfig

// Sender is the encoding pipeline: cull → tile → split → encode.
type Sender = core.Sender

// Receiver is the decoding pipeline: pair → decode → reconstruct.
type Receiver = core.Receiver

// EncodedFrame is one encoded frame (color + depth packets).
type EncodedFrame = core.EncodedFrame

// PairedFrame is a decoded, sequence-matched frame pair.
type PairedFrame = core.PairedFrame

// NewSender builds a sender.
func NewSender(cfg SenderConfig) (*Sender, error) { return core.NewSender(cfg) }

// NewReceiver builds a receiver.
func NewReceiver(cfg ReceiverConfig) (*Receiver, error) { return core.NewReceiver(cfg) }

// --- viewer traces -----------------------------------------------------------

// UserTrace is a sequence of timestamped viewer poses.
type UserTrace = trace.UserTrace

// SynthUserTrace generates a human-like 6-DoF viewing trace (for demos and
// tests; real deployments feed headset poses into Session).
func SynthUserTrace(name string, seed int64, seconds, rate float64) *UserTrace {
	return trace.SynthUserTrace(name, seed, seconds, rate)
}

// --- calibration and rendering ----------------------------------------------

// CalibrateCamera solves a camera's rigid camera-to-world pose from 3D
// correspondences between points in the camera's local frame and known
// global positions (one-shot extrinsic calibration, §3.2 of the paper).
// Returns the pose and the RMS residual in meters.
func CalibrateCamera(local, world []Vec3) (Pose, float64, error) {
	return calib.Solve(local, world)
}

// RenderOptions configure point-cloud rendering.
type RenderOptions = render.Options

// RenderedImage is a rendered frame with depth buffer.
type RenderedImage = render.Image

// Render splats a point cloud into a 2D image from the viewer's pose —
// the receiver's final pipeline stage (§A.1 of the paper).
func Render(cloud *PointCloud, viewer Pose, opts RenderOptions) *RenderedImage {
	return render.Splat(cloud, viewer, opts)
}
