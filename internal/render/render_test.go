package render

import (
	"bytes"
	"image"
	"image/color"
	"math"
	"math/rand"
	"testing"

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

// scatter is a 120k-point voxelized full-scene-sized cloud in front of the
// origin.
func scatter() *pointcloud.Cloud {
	c := pointcloud.New(0)
	for i := 0; i < 120_000; i++ {
		c.Add(geom.V3(
			math.Sin(float64(i))*2,
			math.Mod(float64(i)*0.001, 2),
			2+math.Cos(float64(i)),
		), [3]uint8{uint8(i), uint8(i >> 8), 128})
	}
	return c
}

// TestRenderMeetsMTPBudget is a smoke test at a headset-like resolution:
// a full-scene cloud renders and covers the viewport. How long it takes
// (§4.4: render within the 20 ms MTP budget) is the benchmark's
// render.splat_ms, not a wall-clock assertion here.
func TestRenderMeetsMTPBudget(t *testing.T) {
	im := Splat(scatter(), geom.PoseIdentity, Options{Width: 640, Height: 480})
	if im.Drawn == 0 || im.Coverage() <= 0 {
		t.Errorf("120k points: drawn %d, coverage %v", im.Drawn, im.Coverage())
	}
}

// maxSplatAllocs is Splat's per-frame allocation budget: the image, its
// pixels, the depth buffer and the result, whatever the cloud size.
// Anything per point or per pixel blows well past it.
const maxSplatAllocs = 4

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

// splatRef is the splatter Splat replaced, kept verbatim as the oracle for
// its output: it clears and draws through image.RGBA.SetRGBA and clips
// every splat pixel on its own. Splat must match it bit for bit on every
// finite cloud (it differs only on non-finite points, TestSplatNonFinite).
func splatRef(cloud *pointcloud.Cloud, viewer geom.Pose, opts Options) *Image {
	opts = opts.withDefaults()
	w, h := opts.Width, opts.Height
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	z := make([]float64, w*h)
	for i := range z {
		z[i] = math.Inf(1)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			img.SetRGBA(x, y, opts.Background)
		}
	}
	fy := float64(h) / 2 / math.Tan(opts.View.FovY/2)
	fx := fy
	cx, cy := float64(w)/2, float64(h)/2
	worldToCam := viewer.InverseMat4()

	out := &Image{RGBA: img, Z: z}
	for i, p := range cloud.Positions {
		lc := worldToCam.TransformPoint(p)
		if lc.Z < opts.View.Near || lc.Z > opts.View.Far {
			continue
		}
		u := lc.X/lc.Z*fx + cx
		v := lc.Y/lc.Z*fy + cy
		if u < 0 || u >= float64(w) || v < 0 || v >= float64(h) {
			continue
		}
		out.Drawn++
		col := cloud.Colors[i]
		r := opts.PointSize / lc.Z
		if r < 0.5 {
			r = 0.5
		}
		ir := int(r + 0.5)
		ui, vi := int(u), int(v)
		for dy := -ir; dy <= ir; dy++ {
			for dx := -ir; dx <= ir; dx++ {
				x, y := ui+dx, vi+dy
				if x < 0 || x >= w || y < 0 || y >= h {
					continue
				}
				idx := y*w + x
				if lc.Z >= z[idx] {
					continue
				}
				z[idx] = lc.Z
				img.SetRGBA(x, y, color.RGBA{R: col[0], G: col[1], B: col[2], A: 255})
			}
		}
	}
	return out
}

// sameSplat reports the first difference between two renders: Drawn, the
// image geometry, any pixel byte, or any depth bit.
func sameSplat(t testing.TB, got, want *Image) {
	t.Helper()
	if got.Drawn != want.Drawn {
		t.Errorf("Drawn = %d, reference %d", got.Drawn, want.Drawn)
	}
	g, r := got.RGBA, want.RGBA
	if g.Rect != r.Rect || g.Stride != r.Stride || len(g.Pix) != len(r.Pix) || len(got.Z) != len(want.Z) {
		t.Fatalf("geometry %v stride %d (%d px, %d z), reference %v stride %d (%d px, %d z)",
			g.Rect, g.Stride, len(g.Pix), len(got.Z), r.Rect, r.Stride, len(r.Pix), len(want.Z))
	}
	w := r.Rect.Dx()
	for i := range got.Z {
		if !bytes.Equal(g.Pix[4*i:4*i+4], r.Pix[4*i:4*i+4]) {
			t.Errorf("pixel (%d,%d) = %v, reference %v", i%w, i/w, g.Pix[4*i:4*i+4], r.Pix[4*i:4*i+4])
			return
		}
		if math.Float64bits(got.Z[i]) != math.Float64bits(want.Z[i]) {
			t.Errorf("Z at (%d,%d) = %v, reference %v", i%w, i/w, got.Z[i], want.Z[i])
			return
		}
	}
}

// onPixel returns the camera-space point at depth z that the default view
// projects onto pixel (u, v) of a w×h viewport.
func onPixel(w, h int, u, v, z float64) geom.Vec3 {
	f := float64(h) / 2 / math.Tan(geom.DefaultViewParams().FovY/2)
	return geom.V3((u-float64(w)/2)/f*z, (v-float64(h)/2)/f*z, z)
}

func TestSplatMatchesReference(t *testing.T) {
	red, green, blue := [3]uint8{255, 0, 0}, [3]uint8{0, 255, 0}, [3]uint8{0, 0, 255}

	edges := pointcloud.New(0) // ir = 4 at z 0.6: every splat is cut
	for i, uv := range [][2]float64{
		{0, 24}, {63.9, 24}, {32, 0}, {32, 47.9}, // the four edges
		{0, 0}, {63.9, 0}, {0, 47.9}, {63.9, 47.9}, // the four corners
		{2.5, 30}, {61.2, 3.1}, {-0.5, 10}, {64.2, 10}, // inside, and just outside
	} {
		edges.Add(onPixel(64, 48, uv[0], uv[1], 0.6), [3]uint8{uint8(20 * i), uint8(255 - 20*i), 7})
	}

	near := pointcloud.New(0) // ir up to 25 at the near plane
	for i, z := range []float64{0.1, 0.1001, 0.15, 0.3} {
		near.Add(onPixel(64, 48, float64(10+12*i), float64(8+9*i), z), [3]uint8{uint8(60 * i), 200, 90})
	}

	depth := pointcloud.New(0) // behind, at 0, at the planes, past far
	for i, z := range []float64{-1, 0, 0.0999, 0.1, 2, 6, 6.0001, 100} {
		depth.Add(onPixel(40, 30, float64(4+4*i), 15, z), [3]uint8{uint8(30 * i), 0, 255})
	}

	ties := pointcloud.New(0) // first point at equal depth keeps the pixel
	for _, col := range [][3]uint8{red, green, blue} {
		ties.Add(onPixel(32, 24, 16, 12, 1.5), col)
		ties.Add(onPixel(32, 24, 18.5, 13.2, 1.5), col) // overlapping square
		ties.Add(onPixel(32, 24, 5, 5, 1.5), col)
	}
	ties.Add(onPixel(32, 24, 16, 12, 1.2), [3]uint8{9, 9, 9}) // nearer: wins late

	occlusion := wall(30, 3.0, red) // far, then near, then far again
	for i, p := range wall(30, 1.5, green).Positions {
		occlusion.Add(geom.V3(p.X*0.3, p.Y*0.3, p.Z), green)
		occlusion.Add(geom.V3(p.X, p.Y, 2.5), [3]uint8{uint8(i), 0, 0})
	}

	rng := rand.New(rand.NewSource(7))
	random := pointcloud.New(0)
	for i := 0; i < 3000; i++ {
		random.Add(geom.V3(rng.Float64()*4-2, rng.Float64()*3-1.5, rng.Float64()*7-0.5),
			[3]uint8{uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256))})
	}

	posed := geom.LookAt(geom.V3(1, 0.5, -2), geom.V3(0, 0, 1), geom.V3(0, 1, 0))
	bg := color.RGBA{R: 200, G: 100, B: 50, A: 128}
	for _, tc := range []struct {
		name   string
		cloud  *pointcloud.Cloud
		viewer geom.Pose
		opts   Options
	}{
		{"edges", edges, geom.PoseIdentity, Options{Width: 64, Height: 48}},
		{"1x1", wall(20, 2, blue), geom.PoseIdentity, Options{Width: 1, Height: 1}},
		{"3x7", random, geom.PoseIdentity, Options{Width: 3, Height: 7}},
		{"background", edges, geom.PoseIdentity, Options{Width: 64, Height: 48, Background: bg}},
		{"near plane", near, geom.PoseIdentity, Options{Width: 64, Height: 48}},
		{"near plane large", near, geom.PoseIdentity, Options{Width: 64, Height: 48, PointSize: 40}},
		{"behind and past far", depth, geom.PoseIdentity, Options{Width: 40, Height: 30}},
		{"empty", pointcloud.New(0), geom.PoseIdentity, Options{Width: 17, Height: 9}},
		{"ties", ties, geom.PoseIdentity, Options{Width: 32, Height: 24}},
		{"occlusion", occlusion, geom.PoseIdentity, Options{Width: 160, Height: 120}},
		{"random", random, geom.PoseIdentity, Options{Width: 97, Height: 61, PointSize: 4}},
		{"random posed", random, posed, Options{Width: 97, Height: 61}},
		{"default size", random, posed, Options{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sameSplat(t, Splat(tc.cloud, tc.viewer, tc.opts), splatRef(tc.cloud, tc.viewer, tc.opts))
		})
	}
}

// TestSplatNonFinite pins what a point with a NaN or infinite coordinate
// does: nothing. Every comparison with NaN is false, so a reject-form
// check lets such a point through and int(NaN) lands its splat on pixel
// (0,0) with depth NaN, which every later point then overwrites.
func TestSplatNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	c := pointcloud.New(0)
	for _, p := range []geom.Vec3{
		geom.V3(nan, 0, 2), geom.V3(0, nan, 2), geom.V3(0, 0, nan), geom.V3(nan, nan, nan),
		geom.V3(inf, 0, 2), geom.V3(0, -inf, 2), geom.V3(0, 0, inf), geom.V3(0, 0, -inf),
	} {
		c.Add(p, [3]uint8{255, 255, 255})
	}
	opts := Options{Width: 32, Height: 24}
	im := Splat(c, geom.PoseIdentity, opts)
	if im.Drawn != 0 {
		t.Errorf("Drawn = %d, want 0", im.Drawn)
	}
	if px, bg := im.RGBA.RGBAAt(0, 0), opts.withDefaults().Background; px != bg {
		t.Errorf("pixel (0,0) = %+v, want background %+v", px, bg)
	}
	if !math.IsInf(im.Z[0], 1) {
		t.Errorf("Z[0] = %v, want +Inf", im.Z[0])
	}
	if im.Coverage() != 0 {
		t.Errorf("coverage %v, want 0", im.Coverage())
	}

	// A finite point after them still draws.
	c.Add(geom.V3(0, 0, 2), [3]uint8{1, 2, 3})
	if im := Splat(c, geom.PoseIdentity, opts); im.Drawn != 1 || !math.IsInf(im.Z[0], 1) {
		t.Errorf("with one finite point: Drawn = %d, Z[0] = %v; want 1, +Inf", im.Drawn, im.Z[0])
	}
}

// fuzzScene decodes fuzz bytes into a small finite scene: a 9-byte header
// (width, height, point size, background, yaw, pitch, eye x, y, z; missing
// bytes read as 0) and then 6 bytes per point (x, y, z in 1/16 m steps
// within ±8 m, then r, g, b). The grid makes coincident points and equal
// depths common, which is where draw order shows.
func fuzzScene(data []byte) (*pointcloud.Cloud, geom.Pose, Options) {
	var hdr [9]byte
	data = data[copy(hdr[:], data):]
	opts := Options{
		Width:     1 + int(hdr[0])%64,
		Height:    1 + int(hdr[1])%48,
		PointSize: float64(hdr[2]) / 16, // 0: the default
	}
	if hdr[3] != 0 {
		opts.Background = color.RGBA{R: hdr[3], G: ^hdr[3], B: hdr[3] / 2, A: 255}
	}
	s := func(b byte) float64 { return float64(int8(b)) }
	viewer := geom.Pose{
		Position: geom.V3(s(hdr[6])/32, s(hdr[7])/32, s(hdr[8])/32-2),
		Rotation: geom.QuatFromEuler(s(hdr[4])*math.Pi/128, s(hdr[5])*math.Pi/256, 0),
	}
	const maxPoints = 512
	c := pointcloud.New(0)
	for ; len(data) >= 6 && c.Len() < maxPoints; data = data[6:] {
		c.Add(geom.V3(s(data[0])/16, s(data[1])/16, s(data[2])/16), [3]uint8{data[3], data[4], data[5]})
	}
	return c, viewer, opts
}

func FuzzSplat(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{63, 47, 0, 0, 0, 0, 0, 0, 0, 0, 0, 32, 255, 0, 0, 0, 0, 32, 0, 255, 0})
	f.Add([]byte{2, 6, 200, 9, 10, 250, 4, 0, 60, 1, 1, 1, 1, 2, 3, 1, 1, 1, 3, 2, 1, 250, 8, 40, 7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, viewer, opts := fuzzScene(data)
		sameSplat(t, Splat(c, viewer, opts), splatRef(c, viewer, opts))
	})
}

var benchSink *Image

// BenchmarkSplat renders at 640×480 a call-sized cloud (8.1k points, a
// wall 2 m away) and the 120k-point scatter, with Splat and with the
// reference splatter it replaced.
func BenchmarkSplat(b *testing.B) {
	clouds := []struct {
		name  string
		cloud *pointcloud.Cloud
	}{{"8k", wall(90, 2, [3]uint8{200, 50, 50})}, {"120k", scatter()}}
	splats := []struct {
		name  string
		splat func(*pointcloud.Cloud, geom.Pose, Options) *Image
	}{{"splat", Splat}, {"reference", splatRef}}
	for _, c := range clouds {
		for _, s := range splats {
			b.Run(c.name+"/"+s.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchSink = s.splat(c.cloud, geom.PoseIdentity, Options{Width: 640, Height: 480})
				}
			})
		}
	}
}
