package depth

import (
	"math"
	"math/rand"
	"testing"

	"livo/internal/codec/vcodec"
	"livo/internal/frame"
)

// sceneDepth synthesizes a depth map with smooth regions and sharp object
// boundaries — the structure that separates the schemes in Fig 17.
func sceneDepth(w, h, t int) *frame.DepthImage {
	im := frame.NewDepthImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			im.Set(x, y, uint16(2000+y*2500/h)) // sloped background
		}
	}
	// Foreground person-ish blob with a hard edge.
	cx := w/2 + t
	for y := h / 4; y < 3*h/4; y++ {
		for x := cx - w/6; x < cx+w/6; x++ {
			if x >= 0 && x < w {
				im.Set(x, y, 1200)
			}
		}
	}
	return im
}

// depthRMSE over valid (non-zero in both) pixels, in millimeters.
func depthRMSE(a, b *frame.DepthImage) float64 {
	var sum float64
	var n int
	for i := range a.Pix {
		if a.Pix[i] == 0 {
			continue
		}
		d := float64(int(a.Pix[i]) - int(b.Pix[i]))
		sum += d * d
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(n))
}

func roundTrip(t *testing.T, scheme Scheme, qp int) (float64, int) {
	t.Helper()
	cfg := Config{Scheme: scheme, Width: 64, Height: 48}
	enc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rmse float64
	var size int
	for i := 0; i < 4; i++ {
		src := sceneDepth(64, 48, i)
		pkt, err := enc.EncodeQP(src, qp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.Decode(pkt)
		if err != nil {
			t.Fatal(err)
		}
		rmse += depthRMSE(src, got)
		size += pkt.SizeBytes()
	}
	return rmse / 4, size
}

func TestScaled16RoundTripAccurate(t *testing.T) {
	rmse, _ := roundTrip(t, Scaled16, 4)
	if rmse > 15 { // millimeters
		t.Errorf("scaled16 RMSE = %v mm", rmse)
	}
}

func TestSchemeString(t *testing.T) {
	if Scaled16.String() != "scaled16" || Unscaled16.String() != "unscaled16" || RGBPacked.String() != "rgb-packed" {
		t.Error("scheme names wrong")
	}
	if Scheme(99).String() == "" {
		t.Error("unknown scheme should still print")
	}
}

func TestScalingBeatsUnscaled(t *testing.T) {
	// The core claim of §3.2's depth encoding: at comparable QP (same
	// quantizer step on the Y plane), scaled depth has lower error because
	// nearby depth values land in distinct quantization bins.
	scaledRMSE, _ := roundTrip(t, Scaled16, 30)
	unscaledRMSE, _ := roundTrip(t, Unscaled16, 30)
	if scaledRMSE >= unscaledRMSE {
		t.Errorf("scaling did not help: scaled %v mm vs unscaled %v mm", scaledRMSE, unscaledRMSE)
	}
}

func TestRGBPackedWorstAtBoundaries(t *testing.T) {
	// Fig 17: RGB-packed depth suffers large errors. Compare at similar
	// compressed size rather than QP (different plane structure).
	sRMSE, _ := roundTrip(t, Scaled16, 26)
	rRMSE, _ := roundTrip(t, RGBPacked, 26)
	if sRMSE >= rRMSE {
		t.Errorf("rgb-packed unexpectedly better: scaled %v vs rgb %v", sRMSE, rRMSE)
	}
}

func TestRateControlledDepth(t *testing.T) {
	cfg := Config{Scheme: Scaled16, Width: 64, Height: 48, GOP: 30}
	enc, _ := NewEncoder(cfg)
	dec, _ := NewDecoder(cfg)
	target := 1500
	for i := 0; i < 10; i++ {
		pkt, err := enc.Encode(sceneDepth(64, 48, i), target)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.Decode(pkt); err != nil {
			t.Fatal(err)
		}
		if i > 2 && !pkt.Key && pkt.SizeBytes() > 2*target {
			t.Errorf("frame %d: %d bytes for target %d", i, pkt.SizeBytes(), target)
		}
	}
}

func TestZeroPixelsStayInvalid(t *testing.T) {
	// Culled pixels (zero depth) must not come back as ghost geometry.
	cfg := Config{Scheme: Scaled16, Width: 64, Height: 48}
	enc, _ := NewEncoder(cfg)
	dec, _ := NewDecoder(cfg)
	src := frame.NewDepthImage(64, 48)
	// Half the image valid, half culled.
	for y := 0; y < 48; y++ {
		for x := 0; x < 32; x++ {
			src.Set(x, y, 3000)
		}
	}
	pkt, err := enc.EncodeQP(src, 24)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dec.Decode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	ghosts := 0
	for y := 0; y < 48; y++ {
		for x := 36; x < 64; x++ { // away from the boundary
			if got.At(x, y) != 0 {
				ghosts++
			}
		}
	}
	if ghosts > 0 {
		t.Errorf("%d ghost points in culled region", ghosts)
	}
}

func TestLastReconDepthMatchesDecoder(t *testing.T) {
	cfg := Config{Scheme: Scaled16, Width: 32, Height: 32}
	enc, _ := NewEncoder(cfg)
	dec, _ := NewDecoder(cfg)
	if enc.LastReconDepth() != nil {
		t.Error("recon before first frame should be nil")
	}
	src := sceneDepth(32, 32, 0)
	pkt, _ := enc.EncodeQP(src, 18)
	got, _ := dec.Decode(pkt)
	recon := enc.LastReconDepth()
	for i := range got.Pix {
		if got.Pix[i] != recon.Pix[i] {
			t.Fatalf("sender-side recon differs from decoder at %d", i)
		}
	}
}

func TestDepthEncoderErrors(t *testing.T) {
	cfg := Config{Scheme: Scaled16, Width: 32, Height: 32}
	enc, _ := NewEncoder(cfg)
	if _, err := enc.EncodeQP(frame.NewDepthImage(8, 8), 20); err == nil {
		t.Error("wrong-size image accepted")
	}
	bad := Config{Scheme: Scheme(77), Width: 32, Height: 32}
	encBad, err := NewEncoder(bad)
	if err != nil {
		t.Skip("constructor rejected unknown scheme (fine)")
	}
	if _, err := encBad.EncodeQP(frame.NewDepthImage(32, 32), 20); err == nil {
		t.Error("unknown scheme accepted at encode")
	}
}

func TestForceKeyFramePropagates(t *testing.T) {
	cfg := Config{Scheme: Scaled16, Width: 32, Height: 32, GOP: 1000}
	enc, _ := NewEncoder(cfg)
	src := sceneDepth(32, 32, 0)
	if _, err := enc.EncodeQP(src, 20); err != nil {
		t.Fatal(err)
	}
	enc.ForceKeyFrame()
	pkt, _ := enc.EncodeQP(src, 20)
	if !pkt.Key {
		t.Error("ForceKeyFrame did not propagate")
	}
}

func TestMaxRangeClamp(t *testing.T) {
	cfg := Config{Scheme: Scaled16, Width: 16, Height: 16, MaxMM: 4000}
	enc, _ := NewEncoder(cfg)
	dec, _ := NewDecoder(cfg)
	src := frame.NewDepthImage(16, 16)
	for i := range src.Pix {
		src.Pix[i] = 5000 // beyond MaxMM
	}
	pkt, _ := enc.EncodeQP(src, 8)
	got, _ := dec.Decode(pkt)
	for i := range got.Pix {
		if got.Pix[i] > 4100 {
			t.Fatalf("clamp failed: %d", got.Pix[i])
		}
	}
}

func TestSchemesAtEqualBitrate(t *testing.T) {
	// Fig 17's actual comparison: equal byte budget per frame, who has the
	// lowest depth error? Expected order: scaled < unscaled (rgb-packed is
	// structurally different and covered above).
	run := func(scheme Scheme) float64 {
		cfg := Config{Scheme: scheme, Width: 64, Height: 48, GOP: 30}
		enc, _ := NewEncoder(cfg)
		dec, _ := NewDecoder(cfg)
		var rmse float64
		n := 0
		for i := 0; i < 8; i++ {
			src := sceneDepth(64, 48, i)
			pkt, err := enc.Encode(src, 1200)
			if err != nil {
				t.Fatal(err)
			}
			got, err := dec.Decode(pkt)
			if err != nil {
				t.Fatal(err)
			}
			if i >= 2 { // after rate model warmup
				rmse += depthRMSE(src, got)
				n++
			}
		}
		return rmse / float64(n)
	}
	scaled := run(Scaled16)
	unscaled := run(Unscaled16)
	if scaled >= unscaled {
		t.Errorf("at equal bitrate scaled %v mm >= unscaled %v mm", scaled, unscaled)
	}
}

func TestRandomDepthStability(t *testing.T) {
	// Property-ish: decoding never produces values outside [0, 65535] and
	// never errors on random valid content.
	rng := rand.New(rand.NewSource(70))
	cfg := Config{Scheme: Scaled16, Width: 24, Height: 24}
	enc, _ := NewEncoder(cfg)
	dec, _ := NewDecoder(cfg)
	for trial := 0; trial < 5; trial++ {
		src := frame.NewDepthImage(24, 24)
		for i := range src.Pix {
			src.Pix[i] = uint16(rng.Intn(6001))
		}
		pkt, err := enc.EncodeQP(src, 24)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.Decode(pkt); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScaled16ConversionsMatchReference compares the Scaled16 mapping in
// both directions with its loops before they were re-sliced, over every
// millimetre value up to past MaxMM and over out-of-range plane samples.
func TestScaled16ConversionsMatchReference(t *testing.T) {
	cfg := Config{Width: 257, Height: 256, Scheme: Scaled16}.withDefaults()
	enc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	im := frame.NewDepthImage(cfg.Width, cfg.Height)
	for i := range im.Pix {
		im.Pix[i] = uint16(i) // 0..65791 wraps: covers 0..65535
	}
	f, err := enc.toVideoFrame(im)
	if err != nil {
		t.Fatal(err)
	}
	maxMM := uint32(cfg.MaxMM)
	for i, d := range im.Pix {
		v := min(uint32(d), maxMM)
		if want := int32((v*65535 + maxMM/2) / maxMM); f.Planes[0][i] != want {
			t.Fatalf("toVideoFrame sample %d = %d, reference %d", i, f.Planes[0][i], want)
		}
	}
	for i := range f.Planes[0] {
		f.Planes[0][i] = int32(i*7) - 70000 // below 0, in range, above 65535
	}
	back := frame.NewDepthImage(cfg.Width, cfg.Height)
	cfg.fromVideoFrameInto(f, back, nil)
	for i, v := range f.Planes[0] {
		want := uint16((uint32(min(max(v, 0), 65535))*maxMM + 32767) / 65535)
		if want < cfg.MinValidMM {
			want = 0
		}
		if back.Pix[i] != want {
			t.Fatalf("fromVideoFrameInto sample %d = %d, reference %d", i, back.Pix[i], want)
		}
	}
}

// TestDecodeMatchesFramePath holds Decoder.Decode, which reads the
// reconstruction plane directly (RGBPacked: decodes straight to RGB), to
// the frame path it replaced: vcodec Decode, then fromVideoFrameInto on
// the expanded frame. Odd sizes, every scheme, a full GOP of deltas.
func TestDecodeMatchesFramePath(t *testing.T) {
	for _, scheme := range []Scheme{Scaled16, Unscaled16, RGBPacked} {
		cfg := Config{Scheme: scheme, Width: 45, Height: 27, GOP: 4}
		enc, err := NewEncoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := NewDecoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := vcodec.NewDecoder(dec.cfg.videoConfig())
		if err != nil {
			t.Fatal(err)
		}
		want := frame.NewDepthImage(cfg.Width, cfg.Height)
		var tmp *frame.ColorImage
		for i := 0; i < 6; i++ {
			pkt, err := enc.EncodeQP(sceneDepth(cfg.Width, cfg.Height, i), 20)
			if err != nil {
				t.Fatal(err)
			}
			got, err := dec.Decode(pkt)
			if err != nil {
				t.Fatal(err)
			}
			f, err := ref.Decode(pkt)
			if err != nil {
				t.Fatal(err)
			}
			dec.cfg.fromVideoFrameInto(f, want, &tmp)
			for k := range want.Pix {
				if got.Pix[k] != want.Pix[k] {
					t.Fatalf("%v frame %d sample %d = %d, frame path %d", scheme, i, k, got.Pix[k], want.Pix[k])
				}
			}
		}
	}
}
