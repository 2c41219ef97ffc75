// Package predict implements LiVo's frustum-pose prediction (§3.4): a
// Kalman filter over the 6 dimensions of receiver pose (position + Euler
// orientation) following Gül et al. [38], plus the learning-based MLP
// baseline evaluated in Fig 16 (ViVo-style [40]), trained from scratch here.
package predict

import (
	"math"

	"livo/internal/geom"
)

// kf1d is a constant-velocity Kalman filter for one scalar dimension:
// state (position, velocity), scalar position measurements.
type kf1d struct {
	x, v          float64 // state
	p00, p01, p11 float64 // covariance
	q             float64 // process noise (acceleration variance)
	r             float64 // measurement noise variance
	init          bool
}

func newKF1D(q, r float64) *kf1d {
	return &kf1d{q: q, r: r}
}

// step advances the state dt seconds and fuses a measurement z.
func (k *kf1d) step(dt, z float64) {
	if !k.init {
		k.x, k.v = z, 0
		k.p00, k.p11 = k.r, 1
		k.init = true
		return
	}
	// Predict.
	k.x += k.v * dt
	// P = F P F^T + Q (CV model, Q from white acceleration).
	p00 := k.p00 + dt*(2*k.p01+dt*k.p11) + k.q*dt*dt*dt*dt/4
	p01 := k.p01 + dt*k.p11 + k.q*dt*dt*dt/2
	p11 := k.p11 + k.q*dt*dt
	// Update with measurement z (H = [1 0]).
	s := p00 + k.r
	k0 := p00 / s
	k1 := p01 / s
	y := z - k.x
	k.x += k0 * y
	k.v += k1 * y
	k.p00 = (1 - k0) * p00
	k.p01 = (1 - k0) * p01
	k.p11 = p11 - k1*p01
}

// extrapolate returns the predicted position after horizon seconds.
func (k *kf1d) extrapolate(horizon float64) float64 {
	return k.x + k.v*horizon
}

// Kalman predicts future viewer poses from a stream of timestamped pose
// observations. It runs six independent constant-velocity filters: three on
// position, three on unwrapped Euler angles (§3.4).
type Kalman struct {
	pos [3]*kf1d
	ang [3]*kf1d
	// prevAngles are the unwrapped angle measurements used for continuity.
	prevAngles [3]float64
	lastT      float64
	seen       bool
}

// NewKalman creates a predictor with noise parameters tuned for headset
// motion (process noise ~ human acceleration, measurement noise ~ tracker
// jitter).
func NewKalman() *Kalman {
	k := &Kalman{}
	for i := 0; i < 3; i++ {
		k.pos[i] = newKF1D(4.0, 1e-4)  // m
		k.ang[i] = newKF1D(16.0, 1e-4) // rad
	}
	return k
}

// Observe feeds one timestamped pose measurement. Timestamps must be
// non-decreasing.
func (k *Kalman) Observe(t float64, pose geom.Pose) {
	dt := 0.0
	if k.seen {
		dt = t - k.lastT
		if dt < 0 {
			dt = 0
		}
	}
	yaw, pitch, roll := pose.Rotation.Euler()
	angles := [3]float64{yaw, pitch, roll}
	if k.seen {
		for i := range angles {
			angles[i] = unwrap(k.prevAngles[i], angles[i])
		}
	}
	for i := 0; i < 3; i++ {
		k.ang[i].step(dt, angles[i])
	}
	k.pos[0].step(dt, pose.Position.X)
	k.pos[1].step(dt, pose.Position.Y)
	k.pos[2].step(dt, pose.Position.Z)
	k.prevAngles = angles
	k.lastT = t
	k.seen = true
}

// unwrap shifts angle by multiples of 2π to the branch nearest prev.
func unwrap(prev, angle float64) float64 {
	for angle-prev > math.Pi {
		angle -= 2 * math.Pi
	}
	for angle-prev < -math.Pi {
		angle += 2 * math.Pi
	}
	return angle
}

// Predict extrapolates the pose horizon seconds past the last observation.
// Before any observation it returns the identity pose.
func (k *Kalman) Predict(horizon float64) geom.Pose {
	if !k.seen {
		return geom.PoseIdentity
	}
	p := geom.V3(
		k.pos[0].extrapolate(horizon),
		k.pos[1].extrapolate(horizon),
		k.pos[2].extrapolate(horizon),
	)
	yaw := k.ang[0].extrapolate(horizon)
	pitch := k.ang[1].extrapolate(horizon)
	roll := k.ang[2].extrapolate(horizon)
	return geom.Pose{Position: p, Rotation: geom.QuatFromEuler(yaw, pitch, roll)}
}
