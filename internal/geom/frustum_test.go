package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestPlaneSignedDistance(t *testing.T) {
	pl := PlaneFromPointNormal(V3(0, 0, 5), V3(0, 0, 1))
	if d := pl.SignedDistance(V3(0, 0, 7)); math.Abs(d-2) > 1e-12 {
		t.Errorf("distance = %v, want 2", d)
	}
	if d := pl.SignedDistance(V3(0, 0, 3)); math.Abs(d+2) > 1e-12 {
		t.Errorf("distance = %v, want -2", d)
	}
	if d := pl.SignedDistance(V3(9, -4, 5)); math.Abs(d) > 1e-12 {
		t.Errorf("on-plane distance = %v", d)
	}
}

func TestPlaneOffset(t *testing.T) {
	pl := PlaneFromPointNormal(V3(0, 0, 5), V3(0, 0, 1))
	// Offsetting by +1 enlarges the inside half-space by 1 meter.
	moved := pl.Offset(1)
	if d := moved.SignedDistance(V3(0, 0, 4.5)); d < 0 {
		t.Errorf("offset plane should include z=4.5, dist=%v", d)
	}
}

func TestPlaneTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 50; i++ {
		pl := PlaneFromPointNormal(
			V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()),
			V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()+3),
		)
		m := randRigid(rng)
		tp := pl.Transform(m)
		// Signed distance is invariant: dist(T(pl), T(p)) == dist(pl, p).
		p := V3(rng.NormFloat64()*2, rng.NormFloat64()*2, rng.NormFloat64()*2)
		a := pl.SignedDistance(p)
		b := tp.SignedDistance(m.TransformPoint(p))
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("plane transform changed distance: %v vs %v", a, b)
		}
	}
}

func TestFrustumContainsBasics(t *testing.T) {
	// Viewer at origin looking down +Z.
	f := NewFrustum(PoseIdentity, ViewParams{FovY: math.Pi / 2, Aspect: 1, Near: 0.5, Far: 10})
	cases := []struct {
		p    Vec3
		want bool
	}{
		{V3(0, 0, 5), true},         // straight ahead
		{V3(0, 0, 0.4), false},      // before near plane
		{V3(0, 0, 11), false},       // past far plane
		{V3(0, 0, -5), false},       // behind viewer
		{V3(4.9, 0, 5), true},       // inside: 45° half-angle at z=5 means |x|<5
		{V3(5.1, 0, 5), false},      // just outside right boundary
		{V3(0, 4.9, 5), true},       // inside top
		{V3(0, -5.1, 5), false},     // below bottom
		{V3(-4.9, -4.9, 5.0), true}, // corner-ish, inside both side planes
		{V3(100, 100, 5), false},    // way outside
		{V3(0, 0, 10), true},        // on far plane
		{V3(0, 0, 0.5), true},       // on near plane
	}
	for _, c := range cases {
		if got := f.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestFrustumPosedViewer(t *testing.T) {
	// Viewer at (0,0,10) looking back at origin.
	pose := LookAt(V3(0, 0, 10), V3(0, 0, 0), V3(0, 1, 0))
	f := NewFrustum(pose, ViewParams{FovY: math.Pi / 3, Aspect: 1, Near: 0.1, Far: 20})
	if !f.Contains(V3(0, 0, 0)) {
		t.Error("origin should be visible")
	}
	if f.Contains(V3(0, 0, 15)) {
		t.Error("point behind viewer should not be visible")
	}
}

func TestFrustumExpand(t *testing.T) {
	f := NewFrustum(PoseIdentity, ViewParams{FovY: math.Pi / 2, Aspect: 1, Near: 0.5, Far: 10})
	p := V3(5.1, 0, 5) // ~0.07m outside the right plane
	if f.Contains(p) {
		t.Fatal("point should start outside")
	}
	g := f.Expand(0.2) // guard band of 20 cm (the paper's sweet spot)
	if !g.Contains(p) {
		t.Error("guard band should capture near-boundary point")
	}
	// Everything inside stays inside (expansion is monotone).
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 200; i++ {
		q := V3(rng.Float64()*10-5, rng.Float64()*10-5, rng.Float64()*12)
		if f.Contains(q) && !g.Contains(q) {
			t.Fatalf("expand lost point %v", q)
		}
	}
}

func TestFrustumTransformConsistency(t *testing.T) {
	// Core property behind LiVo's culling (§3.4): testing a world point p
	// against the world frustum is equivalent to testing the camera-local
	// point against the camera-local frustum.
	rng := rand.New(rand.NewSource(22))
	f := NewFrustum(
		Pose{Position: V3(0.3, 1.2, -2), Rotation: QuatFromAxisAngle(V3(0, 1, 0), 0.4)},
		DefaultViewParams(),
	)
	for i := 0; i < 200; i++ {
		camPose := Pose{
			Position: V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()),
			Rotation: randQuat(rng),
		}
		worldToCam := camPose.InverseMat4()
		fLocal := f.Transform(worldToCam)
		p := V3(rng.NormFloat64()*4, rng.NormFloat64()*4, rng.NormFloat64()*4)
		pLocal := worldToCam.TransformPoint(p)
		if f.Contains(p) != fLocal.Contains(pLocal) {
			t.Fatalf("frustum transform inconsistent at %v", p)
		}
	}
}

func TestDefaultViewParams(t *testing.T) {
	vp := DefaultViewParams()
	if vp.Near <= 0 || vp.Far <= vp.Near || vp.FovY <= 0 || vp.Aspect <= 0 {
		t.Errorf("bad defaults: %+v", vp)
	}
}
