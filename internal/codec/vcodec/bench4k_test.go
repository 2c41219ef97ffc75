package vcodec

import "testing"

// 4K benchmarks (run with -bench '4K|RoundTrip' -benchmem). The 4K entries
// match LiVo's tiled-frame resolution (§4.1); RoundTrip covers the full
// encode+decode path at 1080p. The content generators mirror the tiled
// conferencing frames the sender produces: smooth gradients (compressible),
// a few hard edges, and a small amount of inter-frame motion.

func BenchmarkEncode4KColor(b *testing.B) { benchEncodeColor(3840, 2160)(b) }
func BenchmarkEncode4KDepth(b *testing.B) { benchEncodeDepth(3840, 2160)(b) }
func BenchmarkDecode4KColor(b *testing.B) { benchDecodeColor(3840, 2160)(b) }
func BenchmarkRoundTrip(b *testing.B)     { benchRoundTrip(1920, 1080)(b) }

// benchColorFrame synthesizes a 3-plane YCbCr frame: gradients plus a
// moving bright bar so delta frames carry real residuals.
func benchColorFrame(w, h, t int) *Frame {
	f := NewFrame(w, h, 3)
	for y := 0; y < h; y++ {
		row := y * w
		for x := 0; x < w; x++ {
			f.Planes[0][row+x] = int32((x*255/w + y*37/h + t*5) % 256)
			f.Planes[1][row+x] = int32(128 + 64*((x>>5)&1))
			f.Planes[2][row+x] = int32((y*255/h + t*3) % 256)
		}
	}
	bar := (t * 16) % (w - 32)
	for y := h / 4; y < h/4+24 && y < h; y++ {
		for x := bar; x < bar+32; x++ {
			f.Planes[0][y*w+x] = 250
		}
	}
	return f
}

// benchDepthFrame synthesizes a full-range-scaled 16-bit depth plane: a
// sloped floor, a step discontinuity, and a moving object.
func benchDepthFrame(w, h, t int) *Frame {
	f := NewFrame(w, h, 1)
	for y := 0; y < h; y++ {
		row := y * w
		base := int32(10000 + y*40000/h)
		for x := 0; x < w; x++ {
			v := base
			if x > w/2 {
				v += 8000
			}
			f.Planes[0][row+x] = v
		}
	}
	obj := (t * 12) % (w - 64)
	for y := h / 3; y < h/3+48 && y < h; y++ {
		for x := obj; x < obj+64; x++ {
			f.Planes[0][y*w+x] = 5000
		}
	}
	return f
}

func benchEncodeColor(w, h int) func(*testing.B) {
	return func(b *testing.B) {
		enc, err := NewEncoder(ColorConfig(w, h))
		if err != nil {
			b.Fatal(err)
		}
		frames := [2]*Frame{benchColorFrame(w, h, 0), benchColorFrame(w, h, 1)}
		target := w * h * 3 / 100 // ~250 KB per 4K frame, LiVo's operating point
		// Warm up the scratch freelist and rate model so the measurement
		// reflects steady-state conferencing, not first-frame setup.
		for i := 0; i < 2; i++ {
			if _, err := enc.Encode(frames[i&1], target); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := enc.Encode(frames[i&1], target); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchEncodeDepth(w, h int) func(*testing.B) {
	return func(b *testing.B) {
		enc, err := NewEncoder(DepthConfig(w, h))
		if err != nil {
			b.Fatal(err)
		}
		frames := [2]*Frame{benchDepthFrame(w, h, 0), benchDepthFrame(w, h, 1)}
		target := w * h / 40
		for i := 0; i < 2; i++ {
			if _, err := enc.Encode(frames[i&1], target); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := enc.Encode(frames[i&1], target); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchDecodeColor(w, h int) func(*testing.B) {
	return func(b *testing.B) {
		cfg := ColorConfig(w, h)
		cfg.GOP = 4
		enc, err := NewEncoder(cfg)
		if err != nil {
			b.Fatal(err)
		}
		pkts := make([]*Packet, 4)
		for i := range pkts {
			p, err := enc.Encode(benchColorFrame(w, h, i), w*h*3/100)
			if err != nil {
				b.Fatal(err)
			}
			pkts[i] = p
		}
		dec, err := NewDecoder(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if _, err := dec.Decode(pkts[i]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := dec.Decode(pkts[i%4]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchRoundTrip(w, h int) func(*testing.B) {
	return func(b *testing.B) {
		cfg := ColorConfig(w, h)
		enc, err := NewEncoder(cfg)
		if err != nil {
			b.Fatal(err)
		}
		dec, err := NewDecoder(cfg)
		if err != nil {
			b.Fatal(err)
		}
		frames := [2]*Frame{benchColorFrame(w, h, 0), benchColorFrame(w, h, 1)}
		target := w * h * 3 / 100
		for i := 0; i < 2; i++ {
			pkt, err := enc.Encode(frames[i&1], target)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := dec.Decode(pkt); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pkt, err := enc.Encode(frames[i&1], target)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := dec.Decode(pkt); err != nil {
				b.Fatal(err)
			}
		}
	}
}
