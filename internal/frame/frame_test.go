package frame

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randColor(rng *rand.Rand, w, h int) *ColorImage {
	im := NewColorImage(w, h)
	rng.Read(im.Pix)
	return im
}

func randDepth(rng *rand.Rand, w, h int) *DepthImage {
	im := NewDepthImage(w, h)
	for i := range im.Pix {
		im.Pix[i] = uint16(rng.Intn(6001)) // 0-6 m at mm resolution
	}
	return im
}

func TestColorImageSetAt(t *testing.T) {
	im := NewColorImage(4, 3)
	im.Set(2, 1, 10, 20, 30)
	r, g, b := im.At(2, 1)
	if r != 10 || g != 20 || b != 30 {
		t.Errorf("At = %d,%d,%d", r, g, b)
	}
	if im.SizeBytes() != 4*3*3 {
		t.Errorf("SizeBytes = %d", im.SizeBytes())
	}
}

func TestColorImageCloneIndependent(t *testing.T) {
	im := NewColorImage(2, 2)
	im.Set(0, 0, 1, 2, 3)
	c := im.Clone()
	c.Set(0, 0, 9, 9, 9)
	if r, _, _ := im.At(0, 0); r != 1 {
		t.Error("clone aliases original")
	}
}

func TestDepthImageBasics(t *testing.T) {
	im := NewDepthImage(4, 4)
	im.Set(3, 3, 5999)
	if im.At(3, 3) != 5999 {
		t.Error("Set/At mismatch")
	}
	if im.SizeBytes() != 4*4*2 {
		t.Errorf("SizeBytes = %d", im.SizeBytes())
	}
	if im.ValidCount() != 1 {
		t.Errorf("ValidCount = %d", im.ValidCount())
	}
	c := im.Clone()
	c.Set(3, 3, 1)
	if im.At(3, 3) != 5999 {
		t.Error("clone aliases original")
	}
}

func TestRGBDFrameValidate(t *testing.T) {
	f := NewRGBDFrame(8, 6)
	if err := f.Validate(); err != nil {
		t.Errorf("valid frame rejected: %v", err)
	}
	bad := RGBDFrame{Color: NewColorImage(8, 6), Depth: NewDepthImage(4, 3)}
	if err := bad.Validate(); err == nil {
		t.Error("misaligned frame accepted")
	}
	if err := (RGBDFrame{}).Validate(); err == nil {
		t.Error("nil frame accepted")
	}
	if f.SizeBytes() != 8*6*3+8*6*2 {
		t.Errorf("SizeBytes = %d", f.SizeBytes())
	}
}

func TestTilerLayout(t *testing.T) {
	// 10 cameras (the Panoptic/Kinect setup) -> 4x3 grid.
	tl, err := NewTiler(10, 64, 48)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Cols != 4 || tl.Rows != 3 {
		t.Errorf("layout = %dx%d", tl.Cols, tl.Rows)
	}
	w, h := tl.FrameSize()
	if w != 256 || h != 144 {
		t.Errorf("frame size = %dx%d", w, h)
	}
	// Tiles must not overlap and stay in bounds.
	seen := map[[2]int]bool{}
	for i := 0; i < tl.N; i++ {
		x, y := tl.TileOrigin(i)
		if x < 0 || y < 0 || x+tl.TileW > w || y+tl.TileH > h {
			t.Errorf("tile %d out of bounds at %d,%d", i, x, y)
		}
		k := [2]int{x, y}
		if seen[k] {
			t.Errorf("tile %d overlaps another at %d,%d", i, x, y)
		}
		seen[k] = true
	}
}

func TestTilerInvalid(t *testing.T) {
	if _, err := NewTiler(0, 8, 8); err == nil {
		t.Error("accepted zero cameras")
	}
	if _, err := NewTiler(4, -1, 8); err == nil {
		t.Error("accepted negative width")
	}
}

func TestTileComposeExtractRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	tl, _ := NewTiler(10, 32, 24)
	colors := make([]*ColorImage, 10)
	depths := make([]*DepthImage, 10)
	for i := range colors {
		colors[i] = randColor(rng, 32, 24)
		depths[i] = randDepth(rng, 32, 24)
	}
	tc, err := tl.ComposeColor(colors)
	if err != nil {
		t.Fatal(err)
	}
	td, err := tl.ComposeDepth(depths)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		c := NewColorImage(32, 24)
		if err := tl.ExtractColorInto(tc, i, c); err != nil {
			t.Fatal(err)
		}
		for j := range c.Pix {
			if c.Pix[j] != colors[i].Pix[j] {
				t.Fatalf("color tile %d corrupted at byte %d", i, j)
			}
		}
		d, err := tl.ExtractDepth(td, i)
		if err != nil {
			t.Fatal(err)
		}
		for j := range d.Pix {
			if d.Pix[j] != depths[i].Pix[j] {
				t.Fatalf("depth tile %d corrupted at %d", i, j)
			}
		}
	}
}

func TestTileComposeErrors(t *testing.T) {
	tl, _ := NewTiler(2, 8, 8)
	if _, err := tl.ComposeColor([]*ColorImage{NewColorImage(8, 8)}); err == nil {
		t.Error("accepted wrong view count")
	}
	if _, err := tl.ComposeColor([]*ColorImage{NewColorImage(8, 8), NewColorImage(4, 4)}); err == nil {
		t.Error("accepted wrong view size")
	}
	if _, err := tl.ComposeDepth([]*DepthImage{NewDepthImage(8, 8)}); err == nil {
		t.Error("accepted wrong depth view count")
	}
	tile := NewColorImage(8, 8)
	if err := tl.ExtractColorInto(NewColorImage(3, 3), 0, tile); err == nil {
		t.Error("accepted wrong tiled size")
	}
	big, _ := tl.ComposeColor([]*ColorImage{NewColorImage(8, 8), NewColorImage(8, 8)})
	if err := tl.ExtractColorInto(big, 5, tile); err == nil {
		t.Error("accepted out-of-range index")
	}
	if err := tl.ExtractColorInto(big, 0, NewColorImage(4, 4)); err == nil {
		t.Error("accepted wrong output size")
	}
	bigD, _ := tl.ComposeDepth([]*DepthImage{NewDepthImage(8, 8), NewDepthImage(8, 8)})
	if _, err := tl.ExtractDepth(bigD, -1); err == nil {
		t.Error("accepted negative index")
	}
}

func TestMarkerRoundTripClean(t *testing.T) {
	f := func(seq uint32) bool {
		c := NewColorImage(MarkerWidth, MarkerHeight)
		if err := StampColorMarker(c, seq); err != nil {
			return false
		}
		got, err := DecodeColorMarker(c)
		if err != nil || got != seq {
			return false
		}
		d := NewDepthImage(MarkerWidth, MarkerHeight)
		if err := StampDepthMarker(d, seq); err != nil {
			return false
		}
		got2, err := DecodeDepthMarker(d)
		return err == nil && got2 == seq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMarkerSurvivesNoise(t *testing.T) {
	// The marker must survive quantization-like noise (this is why each bit
	// is a full 8x8 block of saturated pixels).
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		seq := rng.Uint32()
		c := NewColorImage(MarkerWidth, MarkerHeight)
		if err := StampColorMarker(c, seq); err != nil {
			t.Fatal(err)
		}
		for i := range c.Pix {
			n := int(c.Pix[i]) + rng.Intn(81) - 40 // +/-40 levels of noise
			if n < 0 {
				n = 0
			}
			if n > 255 {
				n = 255
			}
			c.Pix[i] = uint8(n)
		}
		got, err := DecodeColorMarker(c)
		if err != nil || got != seq {
			t.Fatalf("marker lost under noise: got %d err %v want %d", got, err, seq)
		}
	}
}

func TestMarkerParityDetectsCorruption(t *testing.T) {
	c := NewColorImage(MarkerWidth, MarkerHeight)
	if err := StampColorMarker(c, 12345); err != nil {
		t.Fatal(err)
	}
	// Flip one whole data-bit cell.
	for y := 0; y < MarkerCell; y++ {
		for x := 0; x < MarkerCell; x++ {
			r, _, _ := c.At(x, y)
			v := uint8(255) - r
			c.Set(x, y, v, v, v)
		}
	}
	if _, err := DecodeColorMarker(c); err == nil {
		t.Error("corrupted marker decoded without error")
	}
}

func TestMarkerTooSmall(t *testing.T) {
	small := NewColorImage(8, 8)
	if err := StampColorMarker(small, 1); err == nil {
		t.Error("stamp accepted tiny frame")
	}
	if _, err := DecodeColorMarker(small); err == nil {
		t.Error("decode accepted tiny frame")
	}
	smallD := NewDepthImage(8, 8)
	if err := StampDepthMarker(smallD, 1); err == nil {
		t.Error("depth stamp accepted tiny frame")
	}
	if _, err := DecodeDepthMarker(smallD); err == nil {
		t.Error("depth decode accepted tiny frame")
	}
}
