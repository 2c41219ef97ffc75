package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVec3Basics(t *testing.T) {
	a := V3(1, 2, 3)
	b := V3(4, -5, 6)
	if got := a.Add(b); got != V3(5, -3, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != V3(-3, 7, -3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != V3(2, 4, 6) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != 1*4+2*-5+3*6 {
		t.Errorf("Dot = %v", got)
	}
	if got := a.Neg(); got != V3(-1, -2, -3) {
		t.Errorf("Neg = %v", got)
	}
	if got := a.Mul(b); got != V3(4, -10, 18) {
		t.Errorf("Mul = %v", got)
	}
}

func TestVec3CrossOrthogonal(t *testing.T) {
	x := V3(1, 0, 0)
	y := V3(0, 1, 0)
	if got := x.Cross(y); !got.AlmostEqual(V3(0, 0, 1), 1e-12) {
		t.Errorf("x cross y = %v, want z", got)
	}
	// Property: cross product is orthogonal to both operands.
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a, b := V3(ax, ay, az), V3(bx, by, bz)
		if !a.IsFinite() || !b.IsFinite() || a.Len() > 1e100 || b.Len() > 1e100 {
			return true // avoid overflow in the cross product itself
		}
		c := a.Cross(b)
		scale := a.Len() * b.Len()
		if scale == 0 {
			return true
		}
		return math.Abs(c.Dot(a))/scale < 1e-9 && math.Abs(c.Dot(b))/scale < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestVec3Normalize(t *testing.T) {
	v := V3(3, 4, 0).Normalize()
	if math.Abs(v.Len()-1) > 1e-12 {
		t.Errorf("normalized length = %v", v.Len())
	}
	z := Vec3{}.Normalize()
	if z != (Vec3{}) {
		t.Errorf("zero normalize = %v", z)
	}
}

func TestVec3Lerp(t *testing.T) {
	a, b := V3(0, 0, 0), V3(10, -10, 2)
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("lerp 0 = %v", got)
	}
	if got := a.Lerp(b, 1); !got.AlmostEqual(b, 1e-12) {
		t.Errorf("lerp 1 = %v", got)
	}
	if got := a.Lerp(b, 0.5); !got.AlmostEqual(V3(5, -5, 1), 1e-12) {
		t.Errorf("lerp 0.5 = %v", got)
	}
}

func TestVec3MinMax(t *testing.T) {
	a, b := V3(1, 5, -3), V3(2, -4, 0)
	if got := a.Min(b); got != V3(1, -4, -3) {
		t.Errorf("Min = %v", got)
	}
	if got := a.Max(b); got != V3(2, 5, 0) {
		t.Errorf("Max = %v", got)
	}
}

func TestVec3DistTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		a := V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		b := V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		c := V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		if a.Dist(c) > a.Dist(b)+b.Dist(c)+1e-12 {
			t.Fatalf("triangle inequality violated: %v %v %v", a, b, c)
		}
	}
}

func TestVec3IsFinite(t *testing.T) {
	if !V3(1, 2, 3).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	if V3(math.NaN(), 0, 0).IsFinite() {
		t.Error("NaN vector reported finite")
	}
	if V3(0, math.Inf(1), 0).IsFinite() {
		t.Error("Inf vector reported finite")
	}
}

func TestAABB(t *testing.T) {
	pts := []Vec3{V3(1, 2, 3), V3(-1, 5, 0), V3(0, 0, 10)}
	b := NewAABB(pts)
	if b.Min != V3(-1, 0, 0) || b.Max != V3(1, 5, 10) {
		t.Fatalf("bounds = %v %v", b.Min, b.Max)
	}
	for _, p := range pts {
		if !b.Contains(p) {
			t.Errorf("box should contain %v", p)
		}
	}
	if b.Contains(V3(2, 0, 0)) {
		t.Error("box should not contain (2,0,0)")
	}
	if got := b.Center(); !got.AlmostEqual(V3(0, 2.5, 5), 1e-12) {
		t.Errorf("center = %v", got)
	}
	if got := b.Size(); !got.AlmostEqual(V3(2, 5, 10), 1e-12) {
		t.Errorf("size = %v", got)
	}
}

func TestAABBEmpty(t *testing.T) {
	b := NewAABB(nil)
	if b.Contains(V3(0, 0, 0)) {
		t.Error("empty box should contain nothing")
	}
}

func TestAABBUnion(t *testing.T) {
	a := AABB{V3(0, 0, 0), V3(1, 1, 1)}
	b := AABB{V3(2, -1, 0), V3(3, 0, 2)}
	u := a.Union(b)
	if u.Min != V3(0, -1, 0) || u.Max != V3(3, 1, 2) {
		t.Fatalf("union = %v", u)
	}
}
