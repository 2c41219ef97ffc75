package geom

import "math"

// Mat4 is a row-major 4x4 homogeneous transform matrix.
type Mat4 [4][4]float64

// Mat4Identity returns the identity matrix.
func Mat4Identity() Mat4 {
	var m Mat4
	m[0][0], m[1][1], m[2][2], m[3][3] = 1, 1, 1, 1
	return m
}

// Mat4Translate returns a translation matrix.
func Mat4Translate(t Vec3) Mat4 {
	m := Mat4Identity()
	m[0][3], m[1][3], m[2][3] = t.X, t.Y, t.Z
	return m
}

// Mul returns the matrix product m * n.
func (m Mat4) Mul(n Mat4) Mat4 {
	var r Mat4
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			var s float64
			for k := 0; k < 4; k++ {
				s += m[i][k] * n[k][j]
			}
			r[i][j] = s
		}
	}
	return r
}

// TransformPoint applies m to the point p (w=1, perspective-divided).
func (m Mat4) TransformPoint(p Vec3) Vec3 {
	x := m[0][0]*p.X + m[0][1]*p.Y + m[0][2]*p.Z + m[0][3]
	y := m[1][0]*p.X + m[1][1]*p.Y + m[1][2]*p.Z + m[1][3]
	z := m[2][0]*p.X + m[2][1]*p.Y + m[2][2]*p.Z + m[2][3]
	w := m[3][0]*p.X + m[3][1]*p.Y + m[3][2]*p.Z + m[3][3]
	if w != 0 && w != 1 {
		inv := 1 / w
		return Vec3{x * inv, y * inv, z * inv}
	}
	return Vec3{x, y, z}
}

// TransformDir applies only the rotational/scale part of m to direction d.
func (m Mat4) TransformDir(d Vec3) Vec3 {
	return Vec3{
		m[0][0]*d.X + m[0][1]*d.Y + m[0][2]*d.Z,
		m[1][0]*d.X + m[1][1]*d.Y + m[1][2]*d.Z,
		m[2][0]*d.X + m[2][1]*d.Y + m[2][2]*d.Z,
	}
}

// InverseRigid inverts a rigid transform (rotation + translation only).
// It is much cheaper and more stable than a general inverse and is the
// common case for camera extrinsics.
func (m Mat4) InverseRigid() Mat4 {
	var r Mat4
	// R^T
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			r[i][j] = m[j][i]
		}
	}
	// -R^T * t
	t := Vec3{m[0][3], m[1][3], m[2][3]}
	rt := Vec3{
		-(r[0][0]*t.X + r[0][1]*t.Y + r[0][2]*t.Z),
		-(r[1][0]*t.X + r[1][1]*t.Y + r[1][2]*t.Z),
		-(r[2][0]*t.X + r[2][1]*t.Y + r[2][2]*t.Z),
	}
	r[0][3], r[1][3], r[2][3] = rt.X, rt.Y, rt.Z
	r[3][3] = 1
	return r
}

// AlmostEqual reports whether all entries of m are within eps of n.
func (m Mat4) AlmostEqual(n Mat4, eps float64) bool {
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if math.Abs(m[i][j]-n[i][j]) > eps {
				return false
			}
		}
	}
	return true
}
