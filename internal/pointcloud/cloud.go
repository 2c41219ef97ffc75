// Package pointcloud implements the 3D point-cloud representation LiVo
// reconstructs at the receiver, plus the spatial data structures the rest of
// the system needs: voxel-grid downsampling (used to speed up rendering,
// §A.1), a voxel hash grid for nearest-neighbour queries (used by the
// PointSSIM quality metric), frustum culling, and deterministic sampling.
package pointcloud

import (
	"fmt"
	"math/rand"

	"livo/internal/geom"
)

// Cloud is a colored point cloud: parallel position and color slices.
// Positions are in meters in the global frame.
type Cloud struct {
	Positions []geom.Vec3
	Colors    [][3]uint8
}

// New allocates an empty cloud with the given capacity hint.
func New(capacity int) *Cloud {
	return &Cloud{
		Positions: make([]geom.Vec3, 0, capacity),
		Colors:    make([][3]uint8, 0, capacity),
	}
}

// FromSlices wraps existing parallel slices. It returns an error when the
// slices disagree in length.
func FromSlices(pos []geom.Vec3, col [][3]uint8) (*Cloud, error) {
	if len(pos) != len(col) {
		return nil, fmt.Errorf("pointcloud: %d positions but %d colors", len(pos), len(col))
	}
	return &Cloud{Positions: pos, Colors: col}, nil
}

// Len returns the number of points.
func (c *Cloud) Len() int { return len(c.Positions) }

// Add appends one point.
func (c *Cloud) Add(p geom.Vec3, col [3]uint8) {
	c.Positions = append(c.Positions, p)
	c.Colors = append(c.Colors, col)
}

// Clone deep-copies the cloud.
func (c *Cloud) Clone() *Cloud {
	out := New(c.Len())
	out.Positions = append(out.Positions, c.Positions...)
	out.Colors = append(out.Colors, c.Colors...)
	return out
}

// Bounds returns the axis-aligned bounding box of the cloud.
func (c *Cloud) Bounds() geom.AABB { return geom.NewAABB(c.Positions) }

// Transform applies a rigid transform to every point in place.
func (c *Cloud) Transform(m geom.Mat4) {
	for i, p := range c.Positions {
		c.Positions[i] = m.TransformPoint(p)
	}
}

// SizeBytes returns the uncompressed size: 3 float32 coordinates plus 3
// color bytes per point (15 B), matching how the paper sizes raw point
// clouds (≈1 MB per 70k-point person, ≈10 MB full-scene).
func (c *Cloud) SizeBytes() int { return c.Len() * 15 }

// CullFrustum returns a new cloud containing only points inside f.
func (c *Cloud) CullFrustum(f geom.Frustum) *Cloud {
	out := New(c.Len() / 4)
	for i, p := range c.Positions {
		if f.Contains(p) {
			out.Add(p, c.Colors[i])
		}
	}
	return out
}

// CullFrustumInPlace compacts the cloud to the points inside f, preserving
// order, without allocating — the receiver's per-frame culling (§3.1 sends
// only what the viewer's frustum can see; the same test trims the render
// set). The dropped tail of the backing arrays keeps its stale values.
func (c *Cloud) CullFrustumInPlace(f geom.Frustum) {
	w := 0
	for i, p := range c.Positions {
		if f.Contains(p) {
			c.Positions[w] = p
			c.Colors[w] = c.Colors[i]
			w++
		}
	}
	c.Positions = c.Positions[:w]
	c.Colors = c.Colors[:w]
}

// Sample returns a cloud of at most n points drawn without replacement
// using rng. If n >= Len the original cloud is cloned.
func (c *Cloud) Sample(n int, rng *rand.Rand) *Cloud {
	if n >= c.Len() {
		return c.Clone()
	}
	idx := rng.Perm(c.Len())[:n]
	out := New(n)
	for _, i := range idx {
		out.Add(c.Positions[i], c.Colors[i])
	}
	return out
}
