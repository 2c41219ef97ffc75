package depth

import (
	"testing"

	"livo/internal/frame"
)

func TestDownsampleUpsampleSmooth(t *testing.T) {
	// Smooth ramp: SR recovers it closely.
	src := frame.NewDepthImage(32, 32)
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			src.Set(x, y, uint16(1000+x*20+y*10))
		}
	}
	low := Downsample2xInto(src, nil)
	if low.W != 16 || low.H != 16 {
		t.Fatalf("low res %dx%d", low.W, low.H)
	}
	up := SuperResolve2x(low, 32, 32, 300)
	if rmse := depthRMSE(src, up); rmse > 15 {
		t.Errorf("smooth SR RMSE = %v mm", rmse)
	}
}

func TestSuperResolvePreservesEdges(t *testing.T) {
	// A foreground/background step must not produce mid-air points.
	src := frame.NewDepthImage(32, 32)
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			if x < 16 {
				src.Set(x, y, 1000)
			} else {
				src.Set(x, y, 4000)
			}
		}
	}
	up := SuperResolve2x(Downsample2xInto(src, nil), 32, 32, 300)
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			v := up.At(x, y)
			if v == 0 {
				continue
			}
			if v > 1200 && v < 3800 {
				t.Fatalf("mid-air point %d at (%d,%d)", v, x, y)
			}
		}
	}
}

func TestSuperResolveHoles(t *testing.T) {
	src := frame.NewDepthImage(8, 8)
	src.Set(2, 2, 2000) // one isolated valid sample
	low := Downsample2xInto(src, nil)
	up := SuperResolve2x(low, 8, 8, 300)
	// The valid region extends but no fabricated far-field values appear.
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			if v := up.At(x, y); v != 0 && (v < 1900 || v > 2100) {
				t.Fatalf("invented depth %d at (%d,%d)", v, x, y)
			}
		}
	}
}

// TestSuperResolutionLosesToNative measures the footnote-2 trade-off: with
// enough bits for the native stream (the paper's operating point), native
// depth beats transmit-half + super-resolve, because interpolation cannot
// recover surface detail. (At starvation bitrates the ordering flips —
// classic rate-distortion behaviour — which is why this is a design choice
// and not a free win.)
func TestSuperResolutionLosesToNative(t *testing.T) {
	// Content with fine structure (the surface-detail regime of real
	// captures).
	mk := func(tt int) *frame.DepthImage {
		im := frame.NewDepthImage(64, 48)
		for y := 0; y < 48; y++ {
			for x := 0; x < 64; x++ {
				base := 2000 + x*15 + y*8
				bump := int(300 * pseudo(x/2, y/2, tt)) // ~3cm features
				im.Set(x, y, uint16(base+bump))
			}
		}
		return im
	}

	// Native: encode 64x48 at budget B.
	cfgN := Config{Scheme: Scaled16, Width: 64, Height: 48, GOP: 30}
	encN, _ := NewEncoder(cfgN)
	decN, _ := NewDecoder(cfgN)
	// SR path: downsample to 32x24, encode at the SAME budget, upsample.
	cfgS := Config{Scheme: Scaled16, Width: 32, Height: 24, GOP: 30}
	encS, _ := NewEncoder(cfgS)
	decS, _ := NewDecoder(cfgS)

	budget := 4500
	var nat, sr float64
	n := 0
	for i := 0; i < 8; i++ {
		src := mk(i)
		pn, err := encN.Encode(src, budget)
		if err != nil {
			t.Fatal(err)
		}
		gn, err := decN.Decode(pn)
		if err != nil {
			t.Fatal(err)
		}
		low := Downsample2xInto(src, nil)
		ps, err := encS.Encode(low, budget)
		if err != nil {
			t.Fatal(err)
		}
		gs, err := decS.Decode(ps)
		if err != nil {
			t.Fatal(err)
		}
		up := SuperResolve2x(gs, 64, 48, 300)
		if i < 2 {
			continue
		}
		nat += depthRMSE(src, gn)
		sr += depthRMSE(src, up)
		n++
	}
	nat /= float64(n)
	sr /= float64(n)
	t.Logf("native RMSE %.1f mm, super-resolved %.1f mm at equal bits", nat, sr)
	if nat >= sr {
		t.Errorf("super-resolution unexpectedly beat native: %v vs %v", sr, nat)
	}
}

// pseudo is a deterministic hash in [-1, 1).
func pseudo(x, y, t int) float64 {
	h := uint64(x)*0x9E3779B97F4A7C15 ^ uint64(y)*0xBF58476D1CE4E5B9 ^ uint64(t)*0x94D049BB133111EB
	h ^= h >> 31
	h *= 0xBF58476D1CE4E5B9
	return float64(h%2048)/1024 - 1
}
