// Package geom provides the 3D math primitives used throughout LiVo:
// vectors, quaternions, 4x4 transforms, camera poses, planes, and view
// frustums. Everything is implemented from scratch on float64 (the paper's
// implementation uses Eigen; see DESIGN.md).
//
// Conventions: right-handed coordinate system, +Y up, cameras look down
// their local +Z axis. Angles are radians unless noted. Distances are
// meters except where a function documents millimeters (depth images).
package geom

import (
	"fmt"
	"math"
)

// Vec3 is a 3-component vector (point or direction).
type Vec3 struct {
	X, Y, Z float64
}

// V3 constructs a Vec3.
func V3(x, y, z float64) Vec3 { return Vec3{x, y, z} }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v * s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Neg returns -v.
func (v Vec3) Neg() Vec3 { return Vec3{-v.X, -v.Y, -v.Z} }

// Dot returns the dot product v . w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v x w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Len returns the Euclidean norm of v.
func (v Vec3) Len() float64 { return math.Sqrt(v.Dot(v)) }

// LenSq returns the squared norm of v.
func (v Vec3) LenSq() float64 { return v.Dot(v) }

// Dist returns the Euclidean distance between v and w.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Len() }

// Normalize returns v scaled to unit length. The zero vector is returned
// unchanged.
func (v Vec3) Normalize() Vec3 {
	l := v.Len()
	if l == 0 {
		return v
	}
	return v.Scale(1 / l)
}

// Mul returns the component-wise product of v and w.
func (v Vec3) Mul(w Vec3) Vec3 { return Vec3{v.X * w.X, v.Y * w.Y, v.Z * w.Z} }

// Lerp linearly interpolates between v (t=0) and w (t=1).
func (v Vec3) Lerp(w Vec3, t float64) Vec3 { return v.Add(w.Sub(v).Scale(t)) }

// Min returns the component-wise minimum of v and w.
func (v Vec3) Min(w Vec3) Vec3 {
	return Vec3{math.Min(v.X, w.X), math.Min(v.Y, w.Y), math.Min(v.Z, w.Z)}
}

// Max returns the component-wise maximum of v and w.
func (v Vec3) Max(w Vec3) Vec3 {
	return Vec3{math.Max(v.X, w.X), math.Max(v.Y, w.Y), math.Max(v.Z, w.Z)}
}

// AlmostEqual reports whether every component of v is within eps of w.
func (v Vec3) AlmostEqual(w Vec3, eps float64) bool {
	return math.Abs(v.X-w.X) <= eps && math.Abs(v.Y-w.Y) <= eps && math.Abs(v.Z-w.Z) <= eps
}

// IsFinite reports whether all components are finite numbers.
func (v Vec3) IsFinite() bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0) &&
		!math.IsNaN(v.Z) && !math.IsInf(v.Z, 0)
}

// String implements fmt.Stringer.
func (v Vec3) String() string { return fmt.Sprintf("(%.4f, %.4f, %.4f)", v.X, v.Y, v.Z) }

// AABB is an axis-aligned bounding box.
type AABB struct {
	Min, Max Vec3
}

// NewAABB returns the smallest box containing all points. An empty point set
// yields an inverted box that Contains nothing.
func NewAABB(points []Vec3) AABB {
	b := AABB{
		Min: Vec3{math.Inf(1), math.Inf(1), math.Inf(1)},
		Max: Vec3{math.Inf(-1), math.Inf(-1), math.Inf(-1)},
	}
	for _, p := range points {
		b.Min = b.Min.Min(p)
		b.Max = b.Max.Max(p)
	}
	return b
}

// Contains reports whether p lies inside or on the box.
func (b AABB) Contains(p Vec3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// Center returns the box center.
func (b AABB) Center() Vec3 { return b.Min.Add(b.Max).Scale(0.5) }

// Size returns the box extents.
func (b AABB) Size() Vec3 { return b.Max.Sub(b.Min) }

// Union returns the smallest box containing both b and o.
func (b AABB) Union(o AABB) AABB {
	return AABB{b.Min.Min(o.Min), b.Max.Max(o.Max)}
}
