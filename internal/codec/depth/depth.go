// Package depth implements LiVo's depth-stream encodings (§3.2, Fig 17):
//
//   - Scaled16 — LiVo's scheme: 16-bit depth values scaled to occupy the
//     full 16-bit range before coding in the single 16-bit Y plane. For a
//     given quantizer step, scaling by k keeps values k-times further apart,
//     so fewer distinct depths collapse into one quantization bin.
//   - Unscaled16 — the naive 16-bit Y mode: raw millimeter values (only
//     ~6000 of 65536 codes used), which suffers visible block artifacts
//     (Fig A.1).
//   - RGBPacked — prior work's approach [39, 76, 84]: the 16-bit value is
//     split across the channels of an ordinary 8-bit color frame. Chroma
//     subquantization and block transforms tear the low byte apart at
//     discontinuities, producing large depth errors.
//
// All three ride on the same rate-adaptive video codec so Fig 17 compares
// encodings, not codecs.
package depth

import (
	"fmt"

	"livo/internal/codec/vcodec"
	"livo/internal/frame"
	"livo/internal/pipeline"
)

// Scheme selects the depth-to-video mapping.
type Scheme int

// Depth encoding schemes (Fig 17).
const (
	Scaled16   Scheme = iota // LiVo: full-range-scaled 16-bit Y
	Unscaled16               // naive 16-bit Y
	RGBPacked                // hi/lo bytes packed into color channels
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case Scaled16:
		return "scaled16"
	case Unscaled16:
		return "unscaled16"
	case RGBPacked:
		return "rgb-packed"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// DefaultMaxMM is the depth range commodity cameras cover: 6 m at
// millimeter resolution (§3.2).
const DefaultMaxMM = 6000

// DefaultMinValidMM mirrors the sensors' minimum range: decoded depths
// below it are treated as "no measurement", which also suppresses coding
// noise around culled (zero) pixels.
const DefaultMinValidMM = 150

// Config parameterizes a depth encoder/decoder pair.
type Config struct {
	Scheme        Scheme
	Width, Height int
	MaxMM         uint16 // full-scale depth in millimeters (default 6000)
	MinValidMM    uint16 // validity threshold on decode (default 150)
	GOP           int    // passed through to the video codec
	FlateLevel    int
}

func (c Config) withDefaults() Config {
	if c.MaxMM == 0 {
		c.MaxMM = DefaultMaxMM
	}
	if c.MinValidMM == 0 {
		c.MinValidMM = DefaultMinValidMM
	}
	return c
}

func (c Config) videoConfig() vcodec.Config {
	var vc vcodec.Config
	if c.Scheme == RGBPacked {
		vc = vcodec.ColorConfig(c.Width, c.Height)
	} else {
		vc = vcodec.DepthConfig(c.Width, c.Height)
	}
	vc.GOP = c.GOP
	vc.FlateLevel = c.FlateLevel
	return vc
}

// Encoder encodes a stream of depth images under one scheme.
type Encoder struct {
	cfg Config
	enc *vcodec.Encoder
	// vf and tmpColor are per-encoder staging scratch, reused every frame
	// so the per-tick encode path does not allocate video frames;
	// reconDepth caches the LastReconDepth output image.
	vf         *vcodec.Frame
	tmpColor   *frame.ColorImage
	reconDepth *frame.DepthImage
}

// NewEncoder creates a depth encoder.
func NewEncoder(cfg Config) (*Encoder, error) {
	cfg = cfg.withDefaults()
	enc, err := vcodec.NewEncoder(cfg.videoConfig())
	if err != nil {
		return nil, err
	}
	return &Encoder{cfg: cfg, enc: enc}, nil
}

// toVideoFrame maps a depth image into the scheme's video-frame layout,
// reusing the encoder's staging frame.
func (e *Encoder) toVideoFrame(im *frame.DepthImage) (*vcodec.Frame, error) {
	cfg := e.cfg
	if im.W != cfg.Width || im.H != cfg.Height {
		return nil, fmt.Errorf("depth: image %dx%d does not match config %dx%d", im.W, im.H, cfg.Width, cfg.Height)
	}
	if e.vf == nil {
		nplanes := 1
		if cfg.Scheme == RGBPacked {
			nplanes = 3
		}
		e.vf = vcodec.NewFrame(im.W, im.H, nplanes)
	}
	f := e.vf
	switch cfg.Scheme {
	case Scaled16:
		scaleInto(f.Planes[0], im.Pix, cfg.MaxMM)
		return f, nil
	case Unscaled16:
		vcodec.FromDepthInto(im, f)
		return f, nil
	case RGBPacked:
		if e.tmpColor == nil {
			e.tmpColor = frame.NewColorImage(im.W, im.H)
		}
		c := e.tmpColor
		for i, d := range im.Pix {
			c.Pix[3*i] = uint8(d >> 8)   // high byte
			c.Pix[3*i+1] = uint8(d)      // low byte
			c.Pix[3*i+2] = uint8(d >> 8) // duplicated high byte adds robustness
		}
		vcodec.FromColorInto(c, f)
		return f, nil
	default:
		return nil, fmt.Errorf("depth: unknown scheme %v", cfg.Scheme)
	}
}

// spanSamples is the span, in samples, of the striped depth mappings.
// Fixed (not derived from GOMAXPROCS) so the work decomposition is the same
// at any worker count, and large enough that a conferencing-size frame
// (192x96) maps as one inline span.
const spanSamples = 1 << 15

// scaleInto is Scaled16's forward mapping, striped: millimetres, clamped to
// maxMM, scaled to the full 16-bit code range.
func scaleInto(dst []int32, src []uint16, maxMM uint16) {
	m, n := uint32(maxMM), len(src)
	pipeline.ParFor((n+spanSamples-1)/spanSamples, func(s int) {
		lo := s * spanSamples
		hi := min(lo+spanSamples, n)
		d := dst[lo:hi]
		for i, mm := range src[lo:hi] {
			v := min(uint32(mm), m)
			d[i] = int32((v*65535 + m/2) / m)
		}
	})
}

// planeToDepth maps a decoded single plane back to millimetres in dst and
// applies the validity threshold, striped like scaleInto.
func (cfg Config) planeToDepth(src []int32, dst []uint16) {
	n := len(dst)
	pipeline.ParFor((n+spanSamples-1)/spanSamples, func(s int) {
		lo := s * spanSamples
		hi := min(lo+spanSamples, n)
		cfg.planeSpanToDepth(src[lo:hi], dst[lo:hi])
	})
}

// planeSpanToDepth is planeToDepth on one span. Scaled16 undoes the range
// scaling, Unscaled16 copies; any other scheme yields invalid samples.
func (cfg Config) planeSpanToDepth(src []int32, dst []uint16) {
	m, minValid := uint32(cfg.MaxMM), cfg.MinValidMM
	switch cfg.Scheme {
	case Scaled16:
		for i, v := range src {
			mm := uint16((uint32(min(max(v, 0), 65535))*m + 32767) / 65535)
			if mm < minValid {
				mm = 0
			}
			dst[i] = mm
		}
	case Unscaled16:
		for i, v := range src {
			mm := uint16(min(max(v, 0), 65535))
			if mm < minValid {
				mm = 0
			}
			dst[i] = mm
		}
	default:
		clear(dst)
	}
}

// unpackInto is RGBPacked's inverse: the high byte averaged from the two
// channels that carry it, the low byte from the third, then the validity
// threshold.
func (cfg Config) unpackInto(c *frame.ColorImage, im *frame.DepthImage) {
	for i := range im.Pix {
		hi := (uint16(c.Pix[3*i]) + uint16(c.Pix[3*i+2])) / 2
		mm := hi<<8 | uint16(c.Pix[3*i+1])
		if mm < cfg.MinValidMM {
			mm = 0
		}
		im.Pix[i] = mm
	}
}

// fromVideoFrameInto maps a reconstructed video frame back into an
// existing depth image of the same geometry. tmp points at reusable
// RGBPacked staging scratch owned by the caller; it is allocated on first
// use and untouched by the other schemes.
func (cfg Config) fromVideoFrameInto(f *vcodec.Frame, im *frame.DepthImage, tmp **frame.ColorImage) {
	if cfg.Scheme != RGBPacked {
		cfg.planeToDepth(f.Planes[0], im.Pix)
		return
	}
	if *tmp == nil {
		*tmp = frame.NewColorImage(f.W, f.H)
	}
	f.ToColorInto(*tmp)
	cfg.unpackInto(*tmp, im)
}

// Encode rate-controls the frame to targetBytes.
func (e *Encoder) Encode(im *frame.DepthImage, targetBytes int) (*vcodec.Packet, error) {
	f, err := e.toVideoFrame(im)
	if err != nil {
		return nil, err
	}
	return e.enc.Encode(f, targetBytes)
}

// EncodeQP encodes at a fixed quantization parameter (NoAdapt baseline).
func (e *Encoder) EncodeQP(im *frame.DepthImage, qp int) (*vcodec.Packet, error) {
	f, err := e.toVideoFrame(im)
	if err != nil {
		return nil, err
	}
	return e.enc.EncodeQP(f, qp)
}

// ForceKeyFrame forces the next frame to be a key frame.
func (e *Encoder) ForceKeyFrame() { e.enc.ForceKeyFrame() }

// LastReconDepth returns the encoder-side reconstruction of the last frame
// as a depth image — the splitter's sender-side quality probe (§3.3).
//
// The returned image is owned by the encoder and overwritten by the next
// LastReconDepth call (the probe reads it once per tick); Clone it to
// retain it.
func (e *Encoder) LastReconDepth() *frame.DepthImage {
	r := e.enc.LastRecon()
	if r == nil {
		return nil
	}
	if e.reconDepth == nil {
		e.reconDepth = frame.NewDepthImage(r.W, r.H)
	}
	e.cfg.fromVideoFrameInto(r, e.reconDepth, &e.tmpColor)
	return e.reconDepth
}

// Decoder decodes a depth stream.
type Decoder struct {
	cfg Config
	dec *vcodec.Decoder
	// tmpColor is reusable RGBPacked unpack staging.
	tmpColor *frame.ColorImage
}

// NewDecoder creates a decoder matching the encoder's configuration.
func NewDecoder(cfg Config) (*Decoder, error) {
	cfg = cfg.withDefaults()
	dec, err := vcodec.NewDecoder(cfg.videoConfig())
	if err != nil {
		return nil, err
	}
	return &Decoder{cfg: cfg, dec: dec}, nil
}

// Decode reconstructs a depth image from a packet. The returned image is
// freshly allocated: it escapes into the receiver's pairing maps, so its
// lifetime is the caller's. The single-plane schemes read the decoder's
// full-resolution reconstruction plane directly, RGBPacked decodes straight
// to its RGB staging image.
func (d *Decoder) Decode(pkt *vcodec.Packet) (*frame.DepthImage, error) {
	cfg := d.cfg
	if cfg.Scheme == RGBPacked {
		if d.tmpColor == nil {
			d.tmpColor = frame.NewColorImage(cfg.Width, cfg.Height)
		}
		if err := d.dec.DecodeColorInto(pkt, d.tmpColor); err != nil {
			return nil, err
		}
		im := frame.NewDepthImage(cfg.Width, cfg.Height)
		cfg.unpackInto(d.tmpColor, im)
		return im, nil
	}
	plane, err := d.dec.DecodeLuma(pkt)
	if err != nil {
		return nil, err
	}
	im := frame.NewDepthImage(cfg.Width, cfg.Height)
	cfg.planeToDepth(plane, im.Pix)
	return im, nil
}
