package vcodec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"
)

// Golden digests of TestBitstreamGolden's packets and final
// reconstructions. They pin the bits themselves: a kernel rewrite that
// changes one coefficient, one rounding or one symbol changes them. Change
// them only with a deliberate bitstream change, and say so.
const (
	goldenColorPackets = "afe37e8a177ecfa869ebeddb3c5931f8b858aff442ab22cceb23859271aee182"
	goldenColorRecon   = "34d8d100befe31a746875b4299d64958abda1d88a58d214f5cae6ecd1d0dd829"
	goldenDepthPackets = "8291dcd423bfdd1c521600ba3cd643444948bca9ec915a623dd35b76f0c3cb42"
	goldenDepthRecon   = "8040688f82c5a78db4cea0713006ed1c39e96886877d31072af98d0cdb7ae7c7"
)

// hashPlanes folds a frame's geometry and every sample into h.
func hashPlanes(h hash.Hash, f *Frame) {
	var b [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(b[:], v)
		h.Write(b[:])
	}
	put(uint32(f.W))
	put(uint32(f.H))
	for _, pl := range f.Planes {
		for _, v := range pl {
			put(uint32(v))
		}
	}
}

// goldenDepthFrame is synthDepth mapped the way depth.Scaled16 maps it
// (millimetres spread over the full 16-bit range, MaxMM 6000).
func goldenDepthFrame(w, h, t int) *Frame {
	const maxMM = 6000
	im := synthDepth(w, h, t)
	f := NewFrame(w, h, 1)
	for i, d := range im.Pix {
		v := uint32(d)
		if v > maxMM {
			v = maxMM
		}
		f.Planes[0][i] = int32((v*65535 + maxMM/2) / maxMM)
	}
	return f
}

// TestBitstreamGolden encodes a fixed sequence through the three-rung
// ladder — key and delta frames, a PLI-forced key, motion search, a size
// that is not a multiple of 8, 4:2:0 colour and 16-bit depth, rate-
// controlled targets tight enough to force corrective re-encodes — decodes
// every rung, and compares SHA-256 digests of all packets and of the final
// reconstructions with constants captured before the transform kernels
// were rewritten. TestBitstreamDeterministicAcrossGOMAXPROCS only compares
// worker counts with each other; this test pins the bits.
func TestBitstreamGolden(t *testing.T) {
	const w, h = 53, 71 // 9 luma block rows: two stripes; chroma 27x36
	color := ColorConfig(w, h)
	depth := DepthConfig(w, h)
	cases := []struct {
		name            string
		cfg             Config
		frame           func(i int) *Frame
		packets, recons string
	}{
		{"color420", color, func(i int) *Frame { return FromColor(synthColor(w, h, i)) }, goldenColorPackets, goldenColorRecon},
		{"depth16", depth, func(i int) *Frame { return goldenDepthFrame(w, h, i) }, goldenDepthPackets, goldenDepthRecon},
	}
	// Per-frame byte targets: generous, then a squeeze mid-GOP that the
	// rate model misses, then generous again.
	targets := []int{900, 900, 900, 120, 900, 900, 120, 900, 900, 900}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.GOP = 4
			cfg.SearchRadius = 1
			le, err := NewLadderEncoder(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			qcfg, _ := le.QuarterConfig()
			decs := make([]*Decoder, 3)
			for r, c := range []Config{cfg, cfg, qcfg} {
				if decs[r], err = NewDecoder(c); err != nil {
					t.Fatal(err)
				}
			}
			last := make([]*Frame, 3)
			ph := sha256.New()
			reencodes, keys := 0, 0
			for i, target := range targets {
				// The QP Encode's rate model picks first; a packet at any
				// other QP went through a corrective re-encode.
				e := le.Encoder()
				first := e.lastQP
				if e.hasModel {
					first = int(math.Round(6 * (e.modelA - math.Log2(float64(target)))))
				}
				first = clampQP(first, e.cfg.MinQP, e.cfg.MaxQP)
				if i == 6 {
					le.ForceKeyFrame() // a PLI mid-GOP
				}
				pkts, err := le.EncodeLadder(tc.frame(i), nil, target)
				if err != nil {
					t.Fatal(err)
				}
				if pkts[0].QP != first {
					reencodes++
				}
				if pkts[0].Key {
					keys++
				}
				for r, p := range pkts {
					var hdr [12]byte
					hdr[0] = p.Rung
					if p.Key {
						hdr[1] = 1
					}
					binary.LittleEndian.PutUint32(hdr[4:], p.Seq)
					binary.LittleEndian.PutUint32(hdr[8:], uint32(p.QP))
					ph.Write(hdr[:])
					ph.Write(p.Data)
					if last[r], err = decs[r].Decode(p); err != nil {
						t.Fatalf("frame %d rung %d: %v", i, r, err)
					}
				}
			}
			if reencodes == 0 || keys < 3 {
				t.Fatalf("sequence lost its coverage: %d corrective re-encodes, %d key frames", reencodes, keys)
			}
			rh := sha256.New()
			hashPlanes(rh, le.Encoder().LastRecon())
			for _, f := range last {
				hashPlanes(rh, f)
			}
			if got := hex.EncodeToString(ph.Sum(nil)); got != tc.packets {
				t.Errorf("packets sha256 = %s, want %s", got, tc.packets)
			}
			if got := hex.EncodeToString(rh.Sum(nil)); got != tc.recons {
				t.Errorf("reconstruction sha256 = %s, want %s", got, tc.recons)
			}
		})
	}
}
