package geom

import "math"

// Plane is the set of points p with Normal·p + D == 0. Signed distance of a
// point is Normal·p + D; LiVo's frustum planes have normals pointing inward,
// so a point is inside the frustum when its signed distance to every plane
// is >= 0 (§3.4 states the equivalent outward-normal test).
type Plane struct {
	Normal Vec3
	D      float64
}

// PlaneFromPointNormal builds the plane through p with the given normal.
func PlaneFromPointNormal(p, n Vec3) Plane {
	n = n.Normalize()
	return Plane{Normal: n, D: -n.Dot(p)}
}

// SignedDistance returns the signed distance from p to the plane.
func (pl Plane) SignedDistance(p Vec3) float64 { return pl.Normal.Dot(p) + pl.D }

// Offset shifts the plane by d along its normal (positive d moves the plane
// opposite to the normal, enlarging the inside half-space by d).
func (pl Plane) Offset(d float64) Plane { return Plane{pl.Normal, pl.D + d} }

// Transform returns the plane transformed by the rigid matrix m.
func (pl Plane) Transform(m Mat4) Plane {
	// A plane through point p0 with normal n maps to a plane through m*p0
	// with normal R*n (rigid m).
	p0 := pl.Normal.Scale(-pl.D) // a point on the plane
	return PlaneFromPointNormal(m.TransformPoint(p0), m.TransformDir(pl.Normal))
}

// ViewParams describes the receiver's viewing device: vertical field of view,
// aspect ratio (width/height), and near/far clip distances in meters. These
// are the headset parameters the receiver transmits to the sender (§3.4).
type ViewParams struct {
	FovY   float64 // vertical field of view, radians
	Aspect float64 // width / height
	Near   float64 // near plane distance, m
	Far    float64 // far plane distance, m
}

// DefaultViewParams matches a typical mixed-reality headset's per-eye
// rendering frustum: ~75° vertical FoV, 1.2 aspect, 10 cm near plane, 6 m
// far plane (the range of the depth cameras).
func DefaultViewParams() ViewParams {
	return ViewParams{FovY: 75 * math.Pi / 180, Aspect: 1.2, Near: 0.1, Far: 6}
}

// Frustum is the receiver's 3D field of view: a truncated pyramid bounded by
// six planes (near, far, top, bottom, left, right) whose normals point
// inward.
type Frustum struct {
	Planes [6]Plane // order: near, far, left, right, top, bottom
}

// Frustum plane indices.
const (
	PlaneNear = iota
	PlaneFar
	PlaneLeft
	PlaneRight
	PlaneTop
	PlaneBottom
)

// NewFrustum builds the frustum of a viewer at the given pose with the given
// view parameters. The viewer looks down its local +Z axis.
func NewFrustum(pose Pose, vp ViewParams) Frustum {
	fwd := pose.Forward()
	up := pose.Up()
	right := pose.Right()
	eye := pose.Position

	halfV := vp.FovY / 2
	halfH := math.Atan(math.Tan(halfV) * vp.Aspect)

	var f Frustum
	// Near: inside is beyond eye+near*fwd along fwd.
	f.Planes[PlaneNear] = PlaneFromPointNormal(eye.Add(fwd.Scale(vp.Near)), fwd)
	// Far: inside is before eye+far*fwd.
	f.Planes[PlaneFar] = PlaneFromPointNormal(eye.Add(fwd.Scale(vp.Far)), fwd.Neg())

	// Side planes pass through the eye. Normals point inward.
	sinH, cosH := math.Sincos(halfH)
	sinV, cosV := math.Sincos(halfV)
	// Left plane normal: rotate +right toward fwd by halfH.
	leftN := right.Scale(cosH).Add(fwd.Scale(sinH))
	rightN := right.Neg().Scale(cosH).Add(fwd.Scale(sinH))
	bottomN := up.Scale(cosV).Add(fwd.Scale(sinV))
	topN := up.Neg().Scale(cosV).Add(fwd.Scale(sinV))
	f.Planes[PlaneLeft] = PlaneFromPointNormal(eye, leftN)
	f.Planes[PlaneRight] = PlaneFromPointNormal(eye, rightN)
	f.Planes[PlaneTop] = PlaneFromPointNormal(eye, topN)
	f.Planes[PlaneBottom] = PlaneFromPointNormal(eye, bottomN)
	return f
}

// Contains reports whether p lies inside or on the frustum. Following §3.4,
// p is outside if its distance from any of the six planes is negative
// (inward normals).
func (f Frustum) Contains(p Vec3) bool {
	for i := range f.Planes {
		if f.Planes[i].SignedDistance(p) < 0 {
			return false
		}
	}
	return true
}

// Expand returns the frustum grown by guard meters on every plane — the
// guard band ε that absorbs prediction error (§3.4, ε = 20 cm by default).
func (f Frustum) Expand(guard float64) Frustum {
	var g Frustum
	for i := range f.Planes {
		g.Planes[i] = f.Planes[i].Offset(guard)
	}
	return g
}

// Transform maps the frustum by the rigid matrix m. LiVo's sender transforms
// the receiver frustum into each camera's local coordinate system so pixels
// can be tested without reconstructing the point cloud (§3.4).
func (f Frustum) Transform(m Mat4) Frustum {
	var g Frustum
	for i := range f.Planes {
		g.Planes[i] = f.Planes[i].Transform(m)
	}
	return g
}
