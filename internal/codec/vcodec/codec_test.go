package vcodec

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"livo/internal/frame"
)

// synthColor builds a color frame with smooth gradients plus a moving
// square — compressible but not trivial.
func synthColor(w, h, t int) *frame.ColorImage {
	im := frame.NewColorImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r := uint8((x*255/w + t) % 256)
			g := uint8(y * 255 / h)
			b := uint8(128 + 100*math.Sin(float64(x+y)/10))
			im.Set(x, y, r, g, b)
		}
	}
	// Moving bright square.
	sx := (t * 3) % (w - 8)
	for y := h / 4; y < h/4+8 && y < h; y++ {
		for x := sx; x < sx+8; x++ {
			im.Set(x, y, 250, 250, 250)
		}
	}
	return im
}

// synthDepth builds a depth frame: a sloped floor plus a moving object.
func synthDepth(w, h, t int) *frame.DepthImage {
	im := frame.NewDepthImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			im.Set(x, y, uint16(1500+y*3000/h))
		}
	}
	sx := (t * 2) % (w - 10)
	for y := h / 3; y < h/3+10 && y < h; y++ {
		for x := sx; x < sx+10; x++ {
			im.Set(x, y, 900)
		}
	}
	return im
}

func TestColorConversionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	im := frame.NewColorImage(16, 16)
	rng.Read(im.Pix)
	back := frame.NewColorImage(16, 16)
	FromColor(im).ToColorInto(back)
	for i := range im.Pix {
		d := int(im.Pix[i]) - int(back.Pix[i])
		if d < -3 || d > 3 {
			t.Fatalf("color conversion error %d at byte %d", d, i)
		}
	}
}

func TestDepthConversionExact(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	im := frame.NewDepthImage(16, 16)
	for i := range im.Pix {
		im.Pix[i] = uint16(rng.Intn(65536))
	}
	f := NewFrame(16, 16, 1)
	FromDepthInto(im, f)
	for i := range im.Pix {
		if f.Planes[0][i] != int32(im.Pix[i]) {
			t.Fatalf("depth conversion not exact at %d", i)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	gray := func(lo, hi int) Config {
		return Config{Width: 8, Height: 8, NumPlanes: 1, BitDepth: 8, MinQP: lo, MaxQP: hi}
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"defaults", gray(0, 0), true},
		{"zero width", Config{Width: 0, Height: 8, NumPlanes: 1, BitDepth: 8}, false},
		{"2 planes", Config{Width: 8, Height: 8, NumPlanes: 2, BitDepth: 8}, false},
		{"12-bit", Config{Width: 8, Height: 8, NumPlanes: 1, BitDepth: 12}, false},
		{"MaxQP at the coded limit", gray(0, maxCodedQP), true},
		{"MaxQP pinned at 0", gray(0, ExplicitZero), true},
		{"MinQP at the default MaxQP", gray(51, 0), true},
		{"negative MinQP", gray(-2, 0), false},
		{"MaxQP past the coded limit", gray(0, maxCodedQP+1), false},
		{"MaxQP 300", gray(0, 300), false},
		{"MinQP above the default MaxQP", gray(52, 0), false},
		{"MinQP above a pinned MaxQP", gray(1, ExplicitZero), false},
		{"MinQP above MaxQP", gray(30, 20), false},
	} {
		if err := tc.cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate = %v, want ok %v", tc.name, err, tc.ok)
		}
		if _, err := NewEncoder(tc.cfg); (err == nil) != tc.ok {
			t.Errorf("%s: NewEncoder error %v, want ok %v", tc.name, err, tc.ok)
		}
		if _, err := NewDecoder(tc.cfg); (err == nil) != tc.ok {
			t.Errorf("%s: NewDecoder error %v, want ok %v", tc.name, err, tc.ok)
		}
	}
	if _, err := NewEncoder(Config{}); err == nil {
		t.Error("empty config accepted by encoder")
	}
	if _, err := NewDecoder(Config{}); err == nil {
		t.Error("empty config accepted by decoder")
	}
}

// TestQPBeyondRangeDecodes: a QP asked for past the widest valid range is
// clamped to it, and the packet decodes with the encoder's own decoder.
func TestQPBeyondRangeDecodes(t *testing.T) {
	cfg := ColorConfig(64, 48)
	cfg.MaxQP = maxCodedQP
	enc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := enc.EncodeQP(FromColor(synthColor(64, 48, 0)), 290)
	if err != nil {
		t.Fatal(err)
	}
	if pkt.QP != maxCodedQP {
		t.Errorf("coded QP %d, want %d", pkt.QP, maxCodedQP)
	}
	if _, err := dec.Decode(pkt); err != nil {
		t.Fatalf("QP %d did not decode: %v", pkt.QP, err)
	}
}

func TestEncodeDecodeKeyFrameQuality(t *testing.T) {
	cfg := ColorConfig(64, 48)
	enc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := FromColor(synthColor(64, 48, 0))
	pkt, err := enc.EncodeQP(src, 10) // high quality
	if err != nil {
		t.Fatal(err)
	}
	if !pkt.Key {
		t.Error("first frame should be key")
	}
	got, err := dec.Decode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if rmse := PlaneRMSE(src, got); rmse > 4 {
		t.Errorf("key frame RMSE = %v at QP 10", rmse)
	}
	// Compression actually happened.
	raw := 3 * 64 * 48
	if pkt.SizeBytes() >= raw {
		t.Errorf("no compression: %d >= %d", pkt.SizeBytes(), raw)
	}
}

func TestEncoderDecoderStayInSync(t *testing.T) {
	cfg := ColorConfig(48, 48)
	cfg.GOP = 10
	enc, _ := NewEncoder(cfg)
	dec, _ := NewDecoder(cfg)
	for i := 0; i < 25; i++ {
		src := FromColor(synthColor(48, 48, i))
		pkt, err := enc.EncodeQP(src, 16)
		if err != nil {
			t.Fatal(err)
		}
		wantKey := i%10 == 0
		if pkt.Key != wantKey {
			t.Errorf("frame %d key = %v, want %v", i, pkt.Key, wantKey)
		}
		got, err := dec.Decode(pkt)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		// Decoder must match the encoder's own reconstruction bit-exactly —
		// otherwise prediction drift accumulates.
		recon := enc.LastRecon()
		for p := range got.Planes {
			for j := range got.Planes[p] {
				if got.Planes[p][j] != recon.Planes[p][j] {
					t.Fatalf("frame %d plane %d drifts at sample %d", i, p, j)
				}
			}
		}
	}
}

func TestInterFramesCheaperThanKey(t *testing.T) {
	cfg := ColorConfig(64, 64)
	cfg.GOP = 1000
	enc, _ := NewEncoder(cfg)
	im := synthColor(64, 64, 0)
	key, err := enc.EncodeQP(FromColor(im), 20)
	if err != nil {
		t.Fatal(err)
	}
	// Encode the SAME image again: inter prediction should make it tiny.
	delta, err := enc.EncodeQP(FromColor(im), 20)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Key {
		t.Fatal("second frame should be delta")
	}
	if delta.SizeBytes() >= key.SizeBytes()/3 {
		t.Errorf("static delta frame not cheap: key=%d delta=%d", key.SizeBytes(), delta.SizeBytes())
	}
}

func TestHigherQPSmallerAndWorse(t *testing.T) {
	src := FromColor(synthColor(96, 64, 3))
	var prevSize int
	var prevRMSE float64
	for i, qp := range []int{8, 20, 32, 44} {
		enc, _ := NewEncoder(ColorConfig(96, 64))
		dec, _ := NewDecoder(ColorConfig(96, 64))
		pkt, err := enc.EncodeQP(src, qp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.Decode(pkt)
		if err != nil {
			t.Fatal(err)
		}
		rmse := PlaneRMSE(src, got)
		if i > 0 {
			if pkt.SizeBytes() >= prevSize {
				t.Errorf("QP %d size %d not smaller than previous %d", qp, pkt.SizeBytes(), prevSize)
			}
			if rmse < prevRMSE {
				t.Errorf("QP %d RMSE %v better than previous %v", qp, rmse, prevRMSE)
			}
		}
		prevSize, prevRMSE = pkt.SizeBytes(), rmse
	}
}

func TestRateControlHitsTarget(t *testing.T) {
	cfg := ColorConfig(96, 96)
	cfg.GOP = 30
	enc, _ := NewEncoder(cfg)
	target := 2200
	var totalAfterWarmup, frames int
	for i := 0; i < 20; i++ {
		pkt, err := enc.Encode(FromColor(synthColor(96, 96, i)), target)
		if err != nil {
			t.Fatal(err)
		}
		if i >= 3 && !pkt.Key { // rate model needs a few frames to converge
			totalAfterWarmup += pkt.SizeBytes()
			frames++
		}
	}
	avg := float64(totalAfterWarmup) / float64(frames)
	if avg > float64(target)*1.5 || avg < float64(target)*0.25 {
		t.Errorf("average delta-frame size %v far from target %d", avg, target)
	}
}

func TestRateControlAdaptsDown(t *testing.T) {
	// Dropping the target sharply must shrink packets within a frame or two
	// — the "direct adaptation" property (§1, Table 1).
	cfg := ColorConfig(96, 96)
	cfg.GOP = 1000
	enc, _ := NewEncoder(cfg)
	for i := 0; i < 6; i++ {
		if _, err := enc.Encode(FromColor(synthColor(96, 96, i)), 6000); err != nil {
			t.Fatal(err)
		}
	}
	var small int
	for i := 6; i < 10; i++ {
		pkt, err := enc.Encode(FromColor(synthColor(96, 96, i)), 600)
		if err != nil {
			t.Fatal(err)
		}
		small = pkt.SizeBytes()
	}
	if small > 1200 {
		t.Errorf("after target drop to 600, packets still %d bytes", small)
	}
}

func TestEncodeErrors(t *testing.T) {
	enc, _ := NewEncoder(ColorConfig(16, 16))
	if _, err := enc.Encode(NewFrame(16, 16, 3), 0); err == nil {
		t.Error("zero target accepted")
	}
	if _, err := enc.EncodeQP(NewFrame(8, 8, 3), 20); err == nil {
		t.Error("wrong frame size accepted")
	}
	if _, err := enc.EncodeQP(NewFrame(16, 16, 1), 20); err == nil {
		t.Error("wrong plane count accepted")
	}
}

func TestDecodeErrors(t *testing.T) {
	dec, _ := NewDecoder(ColorConfig(16, 16))
	if _, err := dec.Decode(&Packet{Data: []byte{}}); err == nil {
		t.Error("empty packet accepted")
	}
	if _, err := dec.Decode(&Packet{Data: []byte{'X', 0, 0, 0}}); err == nil {
		t.Error("bad magic accepted")
	}
	// Delta frame without reference: craft via a real encoder.
	enc, _ := NewEncoder(ColorConfig(16, 16))
	src := FromColor(synthColor(16, 16, 0))
	if _, err := enc.EncodeQP(src, 20); err != nil {
		t.Fatal(err)
	}
	delta, err := enc.EncodeQP(src, 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(delta); err == nil {
		t.Error("delta without reference accepted")
	}
	// Corrupted payload.
	bad := &Packet{Data: append([]byte{}, delta.Data...)}
	bad.Data[len(bad.Data)-1] ^= 0xFF
	fresh, _ := NewDecoder(ColorConfig(16, 16))
	key, _ := NewEncoder(ColorConfig(16, 16))
	kp, _ := key.EncodeQP(src, 20)
	if _, err := fresh.Decode(kp); err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Decode(bad); err == nil {
		t.Log("corrupted payload decoded (flate may tolerate trailing corruption)")
	}
}

func TestForceKeyFrame(t *testing.T) {
	cfg := ColorConfig(32, 32)
	cfg.GOP = 1000
	enc, _ := NewEncoder(cfg)
	src := FromColor(synthColor(32, 32, 0))
	if _, err := enc.EncodeQP(src, 20); err != nil {
		t.Fatal(err)
	}
	p2, _ := enc.EncodeQP(src, 20)
	if p2.Key {
		t.Fatal("unexpected key frame")
	}
	enc.ForceKeyFrame()
	p3, _ := enc.EncodeQP(src, 20)
	if !p3.Key {
		t.Error("ForceKeyFrame ignored")
	}
	// A fresh decoder can join at the forced key frame.
	dec, _ := NewDecoder(cfg)
	if _, err := dec.Decode(p3); err != nil {
		t.Errorf("cannot join at forced key: %v", err)
	}
}

func TestDepthStream16Bit(t *testing.T) {
	cfg := DepthConfig(64, 48)
	enc, _ := NewEncoder(cfg)
	dec, _ := NewDecoder(cfg)
	for i := 0; i < 5; i++ {
		src := NewFrame(64, 48, 1)
		FromDepthInto(synthDepth(64, 48, i), src)
		pkt, err := enc.EncodeQP(src, 4)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.Decode(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if rmse := PlaneRMSE(src, got); rmse > 150 { // of 65535 full scale (min step 256)
			t.Errorf("frame %d depth RMSE = %v", i, rmse)
		}
	}
}

func TestMotionSearchImprovesMovingContent(t *testing.T) {
	// With a translating scene, motion search should cut delta-frame size.
	// A random texture translated 2px per frame: zero-motion residuals are
	// expensive, motion-compensated ones nearly free.
	base := make([]uint8, 96+64)
	rng := rand.New(rand.NewSource(64))
	for i := range base {
		base[i] = uint8(rng.Intn(256))
	}
	mk := func(radius int) int {
		cfg := ColorConfig(96, 96)
		cfg.GOP = 1000
		cfg.SearchRadius = radius
		enc, _ := NewEncoder(cfg)
		total := 0
		for i := 0; i < 6; i++ {
			im := frame.NewColorImage(96, 96)
			for y := 0; y < 96; y++ {
				for x := 0; x < 96; x++ {
					v := base[(x+2*i)%len(base)]
					im.Set(x, y, v, v, v)
				}
			}
			pkt, err := enc.EncodeQP(FromColor(im), 22)
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 {
				total += pkt.SizeBytes()
			}
		}
		return total
	}
	noSearch := mk(0)
	withSearch := mk(2)
	if withSearch >= noSearch {
		t.Errorf("motion search did not help: %d vs %d", withSearch, noSearch)
	}
}

func TestQPToStepDoubling(t *testing.T) {
	for qp := 0; qp < 40; qp++ {
		r := qpToStep(qp+6, 8) / qpToStep(qp, 8)
		if math.Abs(r-2) > 1e-9 {
			t.Fatalf("step ratio at qp %d = %v", qp, r)
		}
	}
	if math.Abs(qpToStep(4, 8)-1) > 1e-12 {
		t.Errorf("qp 4 step = %v, want 1", qpToStep(4, 8))
	}
	// 16-bit planes quantize relative to their full scale (H.265-style):
	// the same QP uses a 256x larger step.
	if math.Abs(qpToStep(20, 16)/qpToStep(20, 8)-256) > 1e-9 {
		t.Error("bit-depth step scaling wrong")
	}
}

func TestZigzagIsPermutation(t *testing.T) {
	seen := map[int]bool{}
	for _, v := range zigzag {
		if v < 0 || v >= 64 || seen[v] {
			t.Fatalf("zigzag invalid at %d", v)
		}
		seen[v] = true
	}
	// Starts at DC, ends at highest frequency.
	if zigzag[0] != 0 || zigzag[63] != 63 {
		t.Errorf("zigzag endpoints: %d %d", zigzag[0], zigzag[63])
	}
}

func TestDCTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 50; trial++ {
		var b, orig [blockSize * blockSize]float64
		for i := range b {
			b[i] = float64(rng.Intn(65536))
			orig[i] = b[i]
		}
		fdct2d(&b)
		idct2dBounded(&b, blockSize-1)
		for i := range b {
			if math.Abs(b[i]-orig[i]) > 1e-6 {
				t.Fatalf("DCT round trip error %v at %d", b[i]-orig[i], i)
			}
		}
	}
}

func TestDCTEnergyPreservation(t *testing.T) {
	// Orthonormal transform: sum of squares preserved (Parseval).
	rng := rand.New(rand.NewSource(63))
	var b [blockSize * blockSize]float64
	var e1 float64
	for i := range b {
		b[i] = rng.NormFloat64() * 100
		e1 += b[i] * b[i]
	}
	fdct2d(&b)
	var e2 float64
	for i := range b {
		e2 += b[i] * b[i]
	}
	if math.Abs(e1-e2)/e1 > 1e-9 {
		t.Errorf("energy not preserved: %v vs %v", e1, e2)
	}
}

func TestNonMultipleOf8Dimensions(t *testing.T) {
	cfg := ColorConfig(37, 29)
	enc, _ := NewEncoder(cfg)
	dec, _ := NewDecoder(cfg)
	for i := 0; i < 4; i++ {
		src := FromColor(synthColor(37, 29, i))
		pkt, err := enc.EncodeQP(src, 14)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.Decode(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if got.W != 37 || got.H != 29 {
			t.Fatalf("decoded size %dx%d", got.W, got.H)
		}
		if rmse := PlaneRMSE(src, got); rmse > 9 { // 4:2:0 chroma loss included
			t.Errorf("frame %d RMSE = %v", i, rmse)
		}
	}
}

func BenchmarkEncodeColor(b *testing.B) {
	cfg := ColorConfig(320, 288)
	enc, _ := NewEncoder(cfg)
	frames := make([]*Frame, 4)
	for i := range frames {
		frames[i] = FromColor(synthColor(320, 288, i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode(frames[i%4], 8000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLadderEncode is BenchmarkEncodeColor through the 3-rung ladder:
// the ratio of the two ns/op is the ladder's encode amortization (one
// encode ≈ 1.5×, not 3×). Reported, not gated — it is a wall-clock ratio.
func BenchmarkLadderEncode(b *testing.B) {
	le, err := NewLadderEncoder(ColorConfig(320, 288), nil)
	if err != nil {
		b.Fatal(err)
	}
	frames := make([]*Frame, 4)
	for i := range frames {
		frames[i] = FromColor(synthColor(320, 288, i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := le.EncodeLadder(frames[i%4], nil, 8000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeColor(b *testing.B) {
	cfg := ColorConfig(320, 288)
	enc, _ := NewEncoder(cfg)
	var pkts []*Packet
	for i := 0; i < 8; i++ {
		p, _ := enc.Encode(FromColor(synthColor(320, 288, i)), 8000)
		pkts = append(pkts, p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, _ := NewDecoder(cfg)
		for _, p := range pkts {
			if _, err := dec.Decode(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func TestConfigExplicitZero(t *testing.T) {
	// The zero value selects defaults...
	def, err := NewEncoder(ColorConfig(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	if c := def.Config(); c.MaxQP != 51 || c.ChromaQPOffset != 6 || c.FlateLevel != 4 {
		t.Fatalf("defaults not applied: %+v", c)
	}
	// ...and ExplicitZero expresses an actual 0 for each defaulted field.
	cfg := ColorConfig(16, 16)
	cfg.MaxQP = ExplicitZero
	cfg.ChromaQPOffset = ExplicitZero
	cfg.FlateLevel = ExplicitZero
	enc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c := enc.Config(); c.MaxQP != 0 || c.ChromaQPOffset != 0 || c.FlateLevel != 0 {
		t.Fatalf("explicit zeros overridden: %+v", c)
	}
	// MaxQP pinned to 0 must actually force QP 0 even under rate control.
	pkt, err := enc.Encode(FromColor(synthColor(16, 16, 0)), 64)
	if err != nil {
		t.Fatal(err)
	}
	if pkt.QP != 0 {
		t.Errorf("MaxQP=ExplicitZero but rate control chose QP %d", pkt.QP)
	}
	// Other negative offsets still pass through verbatim.
	cfg2 := ColorConfig(16, 16)
	cfg2.ChromaQPOffset = -3
	enc2, err := NewEncoder(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if c := enc2.Config(); c.ChromaQPOffset != -3 {
		t.Errorf("ChromaQPOffset -3 rewritten to %d", c.ChromaQPOffset)
	}
	// An ExplicitZero encoder/decoder pair round-trips.
	dec, err := NewDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(pkt); err != nil {
		t.Fatal(err)
	}
}

// encodeSequence encodes n synthetic frames and returns the concatenated
// packet bytes (and the packets themselves).
func encodeSequence(t *testing.T, cfg Config, n int) ([]byte, []*Packet) {
	t.Helper()
	enc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	var pkts []*Packet
	for i := 0; i < n; i++ {
		pkt, err := enc.Encode(FromColor(synthColor(cfg.Width, cfg.Height, i)), 2000)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, pkt.Data...)
		pkts = append(pkts, pkt)
	}
	return all, pkts
}

func TestBitstreamDeterministicAcrossGOMAXPROCS(t *testing.T) {
	// The stripe-parallel encoder must emit byte-identical packets for any
	// worker count — entropy streams are concatenated in deterministic
	// stripe order (§3.2's parallel encoder sessions must not change the
	// bitstream). 129 rows -> 17 block rows -> 3 stripes.
	cfg := ColorConfig(96, 129)
	cfg.GOP = 5
	cfg.SearchRadius = 1

	old := runtime.GOMAXPROCS(1)
	serial, _ := encodeSequence(t, cfg, 12)
	runtime.GOMAXPROCS(4)
	parallel, pkts := encodeSequence(t, cfg, 12)
	runtime.GOMAXPROCS(old)

	if !bytes.Equal(serial, parallel) {
		t.Fatal("bitstream differs between GOMAXPROCS=1 and GOMAXPROCS=4")
	}

	// And the parallel decoder reconstructs identically at both settings.
	decodeAll := func() []*Frame {
		dec, err := NewDecoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out []*Frame
		for _, p := range pkts {
			f, err := dec.Decode(p)
			if err != nil {
				t.Fatal(err)
			}
			// Decode returns a decoder-owned frame overwritten by the next
			// call; Clone to retain the whole sequence.
			out = append(out, f.Clone())
		}
		return out
	}
	runtime.GOMAXPROCS(1)
	f1 := decodeAll()
	runtime.GOMAXPROCS(4)
	f4 := decodeAll()
	runtime.GOMAXPROCS(old)
	for i := range f1 {
		for p := range f1[i].Planes {
			for j := range f1[i].Planes[p] {
				if f1[i].Planes[p][j] != f4[i].Planes[p][j] {
					t.Fatalf("frame %d plane %d differs at %d across GOMAXPROCS", i, p, j)
				}
			}
		}
	}
}

func TestLastReconReusesFrame(t *testing.T) {
	enc, _ := NewEncoder(ColorConfig(64, 48))
	src := FromColor(synthColor(64, 48, 0))
	if _, err := enc.EncodeQP(src, 16); err != nil {
		t.Fatal(err)
	}
	r1 := enc.LastRecon()
	r2 := enc.LastRecon()
	if r1 != r2 {
		t.Error("LastRecon allocated a new frame on the second call")
	}
	// The splitter probes this once per tick at full tile resolution; it
	// must not allocate in steady state.
	if allocs := testing.AllocsPerRun(20, func() { enc.LastRecon() }); allocs != 0 {
		t.Errorf("LastRecon allocates %v per call", allocs)
	}
	// Content still matches a fresh decode.
	dec, _ := NewDecoder(ColorConfig(64, 48))
	enc.ForceKeyFrame()
	pkt, _ := enc.EncodeQP(src, 16)
	got, err := dec.Decode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	_ = got // r1 now refreshed by next LastRecon call
	recon := enc.LastRecon()
	for p := range recon.Planes {
		for j := range recon.Planes[p] {
			if recon.Planes[p][j] != got.Planes[p][j] {
				t.Fatalf("cached recon drifts from decode at plane %d sample %d", p, j)
			}
		}
	}
}

func TestEncodeSteadyStateAllocs(t *testing.T) {
	// In steady state the encode hot path allocates only the returned
	// packet: arena pictures, the per-encoder scratch freelist, and reused
	// deflate state cover the rest. Allow a small budget for the packet
	// itself.
	enc, _ := NewEncoder(ColorConfig(128, 96))
	frames := [2]*Frame{
		FromColor(synthColor(128, 96, 0)),
		FromColor(synthColor(128, 96, 1)),
	}
	for i := 0; i < 4; i++ { // warm up pools and the rate model
		if _, err := enc.Encode(frames[i&1], 3000); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(30, func() {
		i++
		if _, err := enc.Encode(frames[i&1], 3000); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 12 {
		t.Errorf("steady-state encode allocates %v objects per frame", allocs)
	}
}

func TestChroma420PlaneDims(t *testing.T) {
	cfg := ColorConfig(37, 29)
	w, h := cfg.planeDims(0)
	if w != 37 || h != 29 {
		t.Errorf("luma dims %dx%d", w, h)
	}
	w, h = cfg.planeDims(1)
	if w != 19 || h != 15 {
		t.Errorf("chroma dims %dx%d", w, h)
	}
	d := DepthConfig(37, 29)
	if w, h := d.planeDims(0); w != 37 || h != 29 {
		t.Errorf("depth dims %dx%d", w, h)
	}
}

func TestDownUpsampleRoundTrip(t *testing.T) {
	// Constant planes survive 4:2:0 exactly; gradients within +-1 of the
	// 2x2 box average.
	w, h := 10, 7
	src := make([]int32, w*h)
	for i := range src {
		src[i] = 77
	}
	dw, dh := (w+1)/2, (h+1)/2
	down := make([]int32, dw*dh)
	downsample2x(src, w, h, down, dw, dh)
	up := make([]int32, w*h)
	upsample2xRows(down, dw, dh, up, w, 0, h)
	for i := range up {
		if up[i] != 77 {
			t.Fatalf("constant plane corrupted at %d: %d", i, up[i])
		}
	}
}

func TestChroma420SavesBits(t *testing.T) {
	// The same content coded 4:4:4 vs 4:2:0 at equal QP: 4:2:0 is smaller.
	src := FromColor(synthColor(96, 96, 1))
	cfg444 := ColorConfig(96, 96)
	cfg444.Chroma420 = false
	cfg420 := ColorConfig(96, 96)
	e444, _ := NewEncoder(cfg444)
	e420, _ := NewEncoder(cfg420)
	p444, err := e444.EncodeQP(src, 18)
	if err != nil {
		t.Fatal(err)
	}
	p420, err := e420.EncodeQP(src, 18)
	if err != nil {
		t.Fatal(err)
	}
	if p420.SizeBytes() >= p444.SizeBytes() {
		t.Errorf("4:2:0 not smaller: %d vs %d", p420.SizeBytes(), p444.SizeBytes())
	}
	// And it still decodes to a reasonable picture.
	dec, _ := NewDecoder(cfg420)
	got, err := dec.Decode(p420)
	if err != nil {
		t.Fatal(err)
	}
	if rmse := PlaneRMSE(src, got); rmse > 12 {
		t.Errorf("4:2:0 RMSE = %v", rmse)
	}
}

// hashFrame folds every sample of every plane into an FNV-1a hash, so two
// decodes can be compared without retaining either.
func hashFrame(f *Frame) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(f.W))
	mix(uint64(f.H))
	for _, pl := range f.Planes {
		for _, v := range pl {
			mix(uint64(uint32(v)))
		}
	}
	return h
}

func TestDecodeBitExactAcrossGOMAXPROCS(t *testing.T) {
	// The parallel decode path (stripe reconstruction + row-span expansion)
	// must produce byte-identical frames at any worker count. 4:2:0 and odd
	// dimensions exercise the upsampling spans; GOP 4 mixes key and delta
	// frames.
	cfg := ColorConfig(120, 93)
	cfg.GOP = 4
	cfg.SearchRadius = 1
	enc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pkts []*Packet
	for i := 0; i < 10; i++ {
		p, err := enc.EncodeQP(FromColor(synthColor(120, 93, i)), 18)
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, p)
	}
	hashes := func() []uint64 {
		dec, err := NewDecoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out []uint64
		for _, p := range pkts {
			f, err := dec.Decode(p)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, hashFrame(f))
		}
		return out
	}
	old := runtime.GOMAXPROCS(1)
	h1 := hashes()
	runtime.GOMAXPROCS(4)
	h4 := hashes()
	runtime.GOMAXPROCS(old)
	for i := range h1 {
		if h1[i] != h4[i] {
			t.Fatalf("frame %d decodes differently at GOMAXPROCS 1 vs 4", i)
		}
	}
}

func TestDecodeReusesOutputFrame(t *testing.T) {
	cfg := ColorConfig(64, 48)
	enc, _ := NewEncoder(cfg)
	dec, _ := NewDecoder(cfg)
	p0, err := enc.EncodeQP(FromColor(synthColor(64, 48, 0)), 16)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := enc.EncodeQP(FromColor(synthColor(64, 48, 1)), 16)
	if err != nil {
		t.Fatal(err)
	}
	f0, err := dec.Decode(p0)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := dec.Decode(p1)
	if err != nil {
		t.Fatal(err)
	}
	if f0 != f1 {
		t.Error("Decode allocated a new output frame instead of reusing the arena")
	}
}

func TestDecodeSteadyStateAllocs(t *testing.T) {
	// In steady state decode draws everything — reference pictures, parsed
	// symbol tables, inflate state, and the output frame — from per-decoder
	// arenas. The small budget covers the transient stream readers.
	// GOMAXPROCS is pinned to 1 because ParFor's worker spawns allocate;
	// they are not part of the per-frame arena story.
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	cfg := ColorConfig(128, 96)
	cfg.GOP = 2
	enc, _ := NewEncoder(cfg)
	dec, _ := NewDecoder(cfg)
	var pkts []*Packet
	for i := 0; i < 4; i++ {
		p, err := enc.EncodeQP(FromColor(synthColor(128, 96, i)), 16)
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, p)
	}
	for _, p := range pkts { // warm the arenas through a full GOP cycle
		if _, err := dec.Decode(p); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(30, func() {
		// Each run replays from the key frame so every delta extends the
		// reference the decoder actually holds.
		if _, err := dec.Decode(pkts[i%4]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 12 {
		t.Errorf("steady-state decode allocates %v objects per frame, want <= 12", allocs)
	}
	im := frame.NewColorImage(cfg.Width, cfg.Height)
	allocs = testing.AllocsPerRun(30, func() {
		if err := dec.DecodeColorInto(pkts[i%4], im); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 12 {
		t.Errorf("steady-state DecodeColorInto allocates %v objects per frame, want <= 12", allocs)
	}
}

// TestDecodeColorIntoMatchesDecode runs two decoders over one packet
// stream, one through Decode+ToColorInto and one through DecodeColorInto,
// at odd sizes in 4:2:0 and 4:4:4. The stream mixes in corrupt packets
// (bit flips, truncations) and dropped ones (stale references), so the two
// must also agree on every error and on the state each failure leaves.
func TestDecodeColorIntoMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	c444 := Config{Width: 29, Height: 17, NumPlanes: 3, BitDepth: 8}
	for _, cfg := range []Config{ColorConfig(37, 23), ColorConfig(65, 9), ColorConfig(1, 1), c444} {
		cfg.GOP = 5
		enc, err := NewEncoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := NewDecoder(cfg)
		dec, _ := NewDecoder(cfg)
		got := frame.NewColorImage(cfg.Width, cfg.Height)
		want := frame.NewColorImage(cfg.Width, cfg.Height)
		var failures int
		for i := 0; i < 30; i++ {
			src := frame.NewColorImage(cfg.Width, cfg.Height)
			for k := range src.Pix { // a drifting ramp with noise
				src.Pix[k] = uint8(k*7 + i*3 + rng.Intn(8))
			}
			pkt, err := enc.EncodeQP(FromColor(src), 10+rng.Intn(30))
			if err != nil {
				t.Fatal(err)
			}
			var data []byte
			switch rng.Intn(5) {
			case 0: // flip a byte
				data = append([]byte(nil), pkt.Data...)
				data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
			case 1: // truncate
				data = pkt.Data[:rng.Intn(len(pkt.Data))]
			case 2: // drop: the next delta frame decodes against a stale reference
				continue
			default:
				data = pkt.Data
			}
			p := &Packet{Data: data}
			f, refErr := ref.Decode(p)
			gotErr := dec.DecodeColorInto(p, got)
			if fmt.Sprint(refErr) != fmt.Sprint(gotErr) {
				t.Fatalf("%dx%d frame %d: Decode error %v, DecodeColorInto error %v", cfg.Width, cfg.Height, i, refErr, gotErr)
			}
			if ref.HasReference() != dec.HasReference() || ref.refSeq != dec.refSeq {
				t.Fatalf("%dx%d frame %d: decoder states differ", cfg.Width, cfg.Height, i)
			}
			if refErr != nil {
				failures++
				continue
			}
			f.ToColorInto(want)
			if !bytes.Equal(got.Pix, want.Pix) {
				t.Fatalf("%dx%d frame %d: DecodeColorInto pixels differ from Decode+ToColorInto", cfg.Width, cfg.Height, i)
			}
		}
		if failures == 0 {
			t.Fatalf("%dx%d: no packet failed; the stream must exercise the error paths", cfg.Width, cfg.Height)
		}
	}
}

func TestDecodeColorIntoErrors(t *testing.T) {
	cfg := ColorConfig(16, 16)
	enc, _ := NewEncoder(cfg)
	dec, _ := NewDecoder(cfg)
	pkt, err := enc.EncodeQP(FromColor(synthColor(16, 16, 0)), 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.DecodeColorInto(pkt, frame.NewColorImage(16, 8)); err == nil {
		t.Error("image of the wrong size accepted")
	}
	if dec.HasReference() {
		t.Error("a rejected image advanced the decoder")
	}
	mono, _ := NewDecoder(DepthConfig(16, 16))
	if err := mono.DecodeColorInto(pkt, frame.NewColorImage(16, 16)); err == nil {
		t.Error("DecodeColorInto accepted a 1-plane stream")
	}
}
