package render

import (
	"bytes"
	"image/color"
	"math"
	"testing"
	"time"

	"livo/internal/geom"
	"livo/internal/pointcloud"
)

// wall builds a flat grid of points at z = dist in front of the origin.
func wall(n int, dist float64, col [3]uint8) *pointcloud.Cloud {
	c := pointcloud.New(n * n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			c.Add(geom.V3(
				(float64(x)/float64(n-1)-0.5)*2,
				(float64(y)/float64(n-1)-0.5)*2,
				dist,
			), col)
		}
	}
	return c
}

func TestSplatBasics(t *testing.T) {
	c := wall(40, 2.0, [3]uint8{200, 50, 50})
	im := Splat(c, geom.PoseIdentity, Options{Width: 160, Height: 120})
	if im.Drawn == 0 {
		t.Fatal("no points drawn")
	}
	if im.Coverage() <= 0 {
		t.Fatal("no coverage")
	}
	// Center pixel is wall-colored, depth 2 m.
	px := im.RGBA.RGBAAt(80, 60)
	if px.R < 150 || px.G > 100 {
		t.Errorf("center pixel = %+v, want red", px)
	}
	if math.Abs(im.Z[60*160+80]-2.0) > 0.05 {
		t.Errorf("center depth = %v", im.Z[60*160+80])
	}
	// Corner pixel should be background (wall subtends < full FoV... at
	// 2 m a ±1 m wall subtends ~53°, less than the default FoV).
	bg := im.RGBA.RGBAAt(0, 0)
	if bg.R != 24 || bg.G != 24 {
		t.Errorf("corner pixel = %+v, want background", bg)
	}
}

func TestSplatZBuffer(t *testing.T) {
	// A near green wall must occlude a far red wall.
	c := wall(40, 3.0, [3]uint8{255, 0, 0})
	near := wall(40, 1.5, [3]uint8{0, 255, 0})
	for i := range near.Positions {
		// Shrink the near wall so the far one is visible around it.
		near.Positions[i].X *= 0.3
		near.Positions[i].Y *= 0.3
		c.Add(near.Positions[i], near.Colors[i])
	}
	im := Splat(c, geom.PoseIdentity, Options{Width: 160, Height: 120})
	center := im.RGBA.RGBAAt(80, 60)
	if center.G < 150 || center.R > 100 {
		t.Errorf("center = %+v, want green (near wall)", center)
	}
}

func TestSplatClipping(t *testing.T) {
	c := pointcloud.New(0)
	c.Add(geom.V3(0, 0, -1), [3]uint8{255, 255, 255})  // behind viewer
	c.Add(geom.V3(0, 0, 100), [3]uint8{255, 255, 255}) // past far plane
	im := Splat(c, geom.PoseIdentity, Options{Width: 64, Height: 64})
	if im.Drawn != 0 {
		t.Errorf("clipped points drawn: %d", im.Drawn)
	}
}

func TestSplatFromPosedViewer(t *testing.T) {
	c := wall(30, 0, [3]uint8{10, 200, 10}) // wall at z=0 plane
	viewer := geom.LookAt(geom.V3(0, 0, -2), geom.V3(0, 0, 0), geom.V3(0, 1, 0))
	im := Splat(c, viewer, Options{Width: 120, Height: 90})
	if im.Drawn == 0 {
		t.Fatal("posed viewer sees nothing")
	}
	px := im.RGBA.RGBAAt(60, 45)
	if px.G < 150 {
		t.Errorf("center = %+v", px)
	}
}

func TestWritePNG(t *testing.T) {
	c := wall(10, 2, [3]uint8{1, 2, 3})
	im := Splat(c, geom.PoseIdentity, Options{Width: 32, Height: 32})
	var buf bytes.Buffer
	if err := im.WritePNG(&buf); err != nil {
		t.Fatal(err)
	}
	// PNG signature.
	if buf.Len() < 8 || buf.Bytes()[1] != 'P' || buf.Bytes()[2] != 'N' || buf.Bytes()[3] != 'G' {
		t.Error("not a PNG")
	}
}

func TestRenderMeetsMTPBudget(t *testing.T) {
	// §4.4: LiVo renders within 6 ms (MTP budget 20 ms). Our CPU splatter
	// must render a voxelized full-scene cloud within the MTP budget at a
	// headset-like resolution.
	c := pointcloud.New(0)
	for i := 0; i < 120_000; i++ {
		c.Add(geom.V3(
			math.Sin(float64(i))*2,
			math.Mod(float64(i)*0.001, 2),
			2+math.Cos(float64(i)),
		), [3]uint8{uint8(i), uint8(i >> 8), 128})
	}
	opts := Options{Width: 640, Height: 480}
	Splat(c, geom.PoseIdentity, opts) // warm up
	start := time.Now()
	Splat(c, geom.PoseIdentity, opts)
	el := time.Since(start)
	if el > 50*time.Millisecond { // generous CI margin over the 20 ms MTP
		t.Errorf("render took %v", el)
	}
	t.Logf("rendered 120k points at 640x480 in %v", el)
}

// maxSplatAllocs is Splat's per-frame allocation budget: the image, its
// pixels, the depth buffer and the result (4 today), whatever the cloud
// size. Anything per point or per pixel blows well past it.
const maxSplatAllocs = 6

func TestSplatAllocs(t *testing.T) {
	c := wall(120, 2.0, [3]uint8{200, 50, 50})
	opts := Options{Width: 320, Height: 240}
	got := testing.AllocsPerRun(10, func() { Splat(c, geom.PoseIdentity, opts) })
	if got > maxSplatAllocs {
		t.Errorf("Splat allocates %.0f objects per frame, budget %d", got, maxSplatAllocs)
	}
}

func TestOptionsDefaults(t *testing.T) {
	im := Splat(pointcloud.New(0), geom.PoseIdentity, Options{})
	b := im.RGBA.Bounds()
	if b.Dx() != 640 || b.Dy() != 480 {
		t.Errorf("default size = %v", b)
	}
	if im.Coverage() != 0 {
		t.Error("empty cloud should cover nothing")
	}
	// Custom background.
	im2 := Splat(pointcloud.New(0), geom.PoseIdentity, Options{
		Width: 8, Height: 8, Background: color.RGBA{R: 9, G: 8, B: 7, A: 255},
	})
	if im2.RGBA.RGBAAt(4, 4).R != 9 {
		t.Error("custom background ignored")
	}
}
