package geom

import (
	"math"
	"math/rand"
	"testing"
)

func randRigid(rng *rand.Rand) Mat4 {
	p := Pose{
		Position: V3(rng.NormFloat64()*3, rng.NormFloat64()*3, rng.NormFloat64()*3),
		Rotation: randQuat(rng),
	}
	return p.Mat4()
}

func TestMat4Identity(t *testing.T) {
	v := V3(4, 5, 6)
	if got := Mat4Identity().TransformPoint(v); got != v {
		t.Errorf("identity transform = %v", got)
	}
}

func TestMat4TranslateScale(t *testing.T) {
	m := Mat4Translate(V3(1, 2, 3))
	if got := m.TransformPoint(V3(0, 0, 0)); got != V3(1, 2, 3) {
		t.Errorf("translate = %v", got)
	}
	var s Mat4
	s[0][0], s[1][1], s[2][2], s[3][3] = 2, 3, 4, 1
	if got := s.TransformPoint(V3(1, 1, 1)); got != V3(2, 3, 4) {
		t.Errorf("scale = %v", got)
	}
	// Direction ignores translation.
	if got := m.TransformDir(V3(1, 0, 0)); got != V3(1, 0, 0) {
		t.Errorf("dir = %v", got)
	}
}

func TestMat4MulAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 30; i++ {
		a, b, c := randRigid(rng), randRigid(rng), randRigid(rng)
		left := a.Mul(b).Mul(c)
		right := a.Mul(b.Mul(c))
		if !left.AlmostEqual(right, 1e-9) {
			t.Fatal("matrix multiplication not associative")
		}
	}
}

func TestMat4InverseRigid(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		m := randRigid(rng)
		inv := m.InverseRigid()
		if !m.Mul(inv).AlmostEqual(Mat4Identity(), 1e-9) {
			t.Fatal("m * m^-1 != I")
		}
		v := V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		if !inv.TransformPoint(m.TransformPoint(v)).AlmostEqual(v, 1e-9) {
			t.Fatal("inverse rigid round trip failed")
		}
	}
}

func TestPoseTransform(t *testing.T) {
	p := Pose{Position: V3(1, 0, 0), Rotation: QuatFromAxisAngle(V3(0, 1, 0), math.Pi/2)}
	// Local +Z maps to world -X... wait: rotating +Z about +Y by 90° gives +X.
	got := p.TransformPoint(V3(0, 0, 1))
	want := V3(2, 0, 0) // rotate (0,0,1) about Y by +90° -> (1,0,0); + position (1,0,0)
	if !got.AlmostEqual(want, 1e-12) {
		t.Errorf("transform = %v, want %v", got, want)
	}
	back := p.InverseTransformPoint(got)
	if !back.AlmostEqual(V3(0, 0, 1), 1e-12) {
		t.Errorf("inverse transform = %v", back)
	}
}

func TestPoseMat4AgreesWithTransformPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		p := Pose{
			Position: V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()),
			Rotation: randQuat(rng),
		}
		v := V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		if !p.Mat4().TransformPoint(v).AlmostEqual(p.TransformPoint(v), 1e-9) {
			t.Fatal("Mat4 disagrees with TransformPoint")
		}
		if !p.InverseMat4().TransformPoint(v).AlmostEqual(p.InverseTransformPoint(v), 1e-9) {
			t.Fatal("InverseMat4 disagrees with InverseTransformPoint")
		}
	}
}

func TestLookAt(t *testing.T) {
	eye := V3(0, 1, -5)
	target := V3(0, 1, 0)
	p := LookAt(eye, target, V3(0, 1, 0))
	fwd := p.Forward()
	if !fwd.AlmostEqual(V3(0, 0, 1), 1e-9) {
		t.Errorf("forward = %v, want +Z", fwd)
	}
	if p.Position != eye {
		t.Errorf("position = %v", p.Position)
	}
	up := p.Up()
	if math.Abs(up.Dot(fwd)) > 1e-9 {
		t.Error("up not orthogonal to forward")
	}
}

func TestLookAtDegenerate(t *testing.T) {
	// Looking straight up (forward parallel to up hint).
	p := LookAt(V3(0, 0, 0), V3(0, 5, 0), V3(0, 1, 0))
	if !p.Forward().AlmostEqual(V3(0, 1, 0), 1e-9) {
		t.Errorf("forward = %v, want +Y", p.Forward())
	}
	// Target == eye.
	q := LookAt(V3(1, 1, 1), V3(1, 1, 1), V3(0, 1, 0))
	if q.Rotation != QuatIdentity {
		t.Errorf("degenerate LookAt rotation = %v", q.Rotation)
	}
}

func TestPoseLerp(t *testing.T) {
	a := Pose{Position: V3(0, 0, 0), Rotation: QuatIdentity}
	b := Pose{Position: V3(2, 0, 0), Rotation: QuatFromAxisAngle(V3(0, 1, 0), 1.0)}
	mid := a.Lerp(b, 0.5)
	if !mid.Position.AlmostEqual(V3(1, 0, 0), 1e-12) {
		t.Errorf("lerp position = %v", mid.Position)
	}
	if math.Abs(QuatIdentity.AngleTo(mid.Rotation)-0.5) > 1e-9 {
		t.Errorf("lerp rotation angle = %v", QuatIdentity.AngleTo(mid.Rotation))
	}
}
