package metrics

import (
	"math"
	"math/rand"
	"testing"

	"livo/internal/frame"
	"livo/internal/geom"
	"livo/internal/pointcloud"
)

func TestDepthRMSEIgnoresInvalid(t *testing.T) {
	a := frame.NewDepthImage(4, 1)
	b := frame.NewDepthImage(4, 1)
	a.Pix[0] = 1000
	b.Pix[0] = 1010
	// Pixels 1-3 invalid in reference; huge values in b must not count.
	b.Pix[1] = 60000
	if got := DepthRMSE(a, b); math.Abs(got-10) > 1e-12 {
		t.Errorf("RMSE = %v, want 10", got)
	}
	empty := frame.NewDepthImage(4, 1)
	if got := DepthRMSE(empty, b); got != 0 {
		t.Errorf("all-invalid reference RMSE = %v", got)
	}
}

// densePlane builds a flat grid cloud with a smooth color ramp.
func densePlane(n int, noise float64, rng *rand.Rand) *pointcloud.Cloud {
	c := pointcloud.New(n * n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			px := float64(x) * 0.02
			py := float64(y) * 0.02
			var dz float64
			if noise > 0 {
				dz = rng.NormFloat64() * noise
			}
			col := uint8(50 + (x+y)*155/(2*n))
			c.Add(geom.V3(px, py, dz), [3]uint8{col, col, col})
		}
	}
	return c
}

func TestPointSSIMIdentical(t *testing.T) {
	c := densePlane(20, 0, nil)
	s := PointSSIM(c, c.Clone(), PSSIMOptions{})
	if s.Geometry < 99.9 || s.Color < 99.9 {
		t.Errorf("identical clouds PSSIM = %+v, want ~100", s)
	}
}

func TestPointSSIMEmpty(t *testing.T) {
	c := densePlane(5, 0, nil)
	if s := PointSSIM(pointcloud.New(0), c, PSSIMOptions{}); s.Geometry != 0 || s.Color != 0 {
		t.Errorf("empty ref PSSIM = %+v", s)
	}
	if s := PointSSIM(c, pointcloud.New(0), PSSIMOptions{}); s.Geometry != 0 || s.Color != 0 {
		t.Errorf("empty dist PSSIM = %+v", s)
	}
}

func TestPointSSIMGeometryDegradesWithNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	ref := densePlane(25, 0, nil)
	var prev = 101.0
	for _, noise := range []float64{0.001, 0.01, 0.05} {
		dist := densePlane(25, noise, rng)
		s := PointSSIM(ref, dist, PSSIMOptions{Seed: 7})
		if s.Geometry >= prev {
			t.Errorf("noise %v geometry %v not worse than previous %v", noise, s.Geometry, prev)
		}
		prev = s.Geometry
	}
}

func TestPointSSIMColorDegradesWithColorError(t *testing.T) {
	ref := densePlane(25, 0, nil)
	rng := rand.New(rand.NewSource(101))
	clean := PointSSIM(ref, ref.Clone(), PSSIMOptions{Seed: 7})
	// Same geometry, scrambled colors.
	bad := ref.Clone()
	for i := range bad.Colors {
		bad.Colors[i] = [3]uint8{uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256))}
	}
	s := PointSSIM(ref, bad, PSSIMOptions{Seed: 7})
	if s.Color >= clean.Color-5 {
		t.Errorf("scrambled colors PSSIM color = %v vs clean %v", s.Color, clean.Color)
	}
	// Geometry should stay high: positions unchanged.
	if s.Geometry < 95 {
		t.Errorf("geometry dropped (%v) though positions unchanged", s.Geometry)
	}
}

func TestPointSSIMPenalizesMissingRegions(t *testing.T) {
	ref := densePlane(24, 0, nil)
	// Remove half the cloud (like a stalled/culled region the viewer sees).
	half := pointcloud.New(ref.Len() / 2)
	for i := 0; i < ref.Len()/2; i++ {
		half.Add(ref.Positions[i], ref.Colors[i])
	}
	s := PointSSIM(ref, half, PSSIMOptions{Seed: 7})
	full := PointSSIM(ref, ref.Clone(), PSSIMOptions{Seed: 7})
	if s.Geometry >= full.Geometry {
		t.Errorf("missing half not penalized: %v vs %v", s.Geometry, full.Geometry)
	}
}

func TestPointSSIMSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	a := densePlane(20, 0.002, rng)
	b := densePlane(20, 0.002, rng)
	s1 := PointSSIM(a, b, PSSIMOptions{Seed: 7})
	s2 := PointSSIM(b, a, PSSIMOptions{Seed: 7})
	if math.Abs(s1.Geometry-s2.Geometry) > 1e-9 || math.Abs(s1.Color-s2.Color) > 1e-9 {
		t.Errorf("PSSIM not symmetric: %+v vs %+v", s1, s2)
	}
}

func TestPointSSIMDeterministicSubsampling(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	a := densePlane(60, 0, nil) // 3600 points > MaxPoints default
	b := densePlane(60, 0.005, rng)
	s1 := PointSSIM(a, b, PSSIMOptions{Seed: 9})
	s2 := PointSSIM(a, b, PSSIMOptions{Seed: 9})
	if s1 != s2 {
		t.Errorf("same seed, different results: %+v vs %+v", s1, s2)
	}
}

func TestAggregates(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Mean(xs) != 3 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if math.Abs(Std(xs)-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("Std = %v", Std(xs))
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Percentile(xs, 0) != 1 || Percentile(xs, 100) != 5 {
		t.Error("percentile endpoints wrong")
	}
	if got := Percentile(xs, 50); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := Percentile([]float64{1, 2}, 50); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("interpolated median = %v", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile(nil) should be NaN")
	}
}

func BenchmarkPointSSIM(b *testing.B) {
	rng := rand.New(rand.NewSource(104))
	ref := densePlane(50, 0, nil)
	dist := densePlane(50, 0.003, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PointSSIM(ref, dist, PSSIMOptions{MaxPoints: 500})
	}
}
