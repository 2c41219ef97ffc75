package depth

import (
	"fmt"

	"livo/internal/codec/vcodec"
	"livo/internal/frame"
)

// DefaultSuperresJumpMM is the discontinuity threshold for the receiver's
// quarter-rung depth upsampling (SuperResolve2x): samples further apart
// than this are treated as different surfaces and not interpolated.
const DefaultSuperresJumpMM = 150

// LadderEncoder encodes a depth stream at K quality rungs per frame (the
// depth side of the vcodec quality ladder, DESIGN.md §8). Quarter rungs
// ship quarter-resolution depth; the receiver recovers full resolution
// with the edge-aware superres path (SuperResolve2x), the VoLUT approach.
// RGBPacked is not supported (it exists only for the Fig 17 comparison).
type LadderEncoder struct {
	cfg  Config
	lenc *vcodec.LadderEncoder
	// vf/qvf are reused full/quarter staging frames; qim is the derived
	// quarter depth image used when the caller does not supply one;
	// reconDepth and tmpColor back LastReconDepth.
	vf, qvf    *vcodec.Frame
	qim        *frame.DepthImage
	reconDepth *frame.DepthImage
	tmpColor   *frame.ColorImage
}

// NewLadderEncoder creates a depth ladder encoder; nil rungs selects
// vcodec.DefaultLadder().
func NewLadderEncoder(cfg Config, rungs []vcodec.Rung) (*LadderEncoder, error) {
	cfg = cfg.withDefaults()
	if cfg.Scheme == RGBPacked {
		return nil, fmt.Errorf("depth: ladder does not support the RGBPacked scheme")
	}
	lenc, err := vcodec.NewLadderEncoder(cfg.videoConfig(), rungs)
	if err != nil {
		return nil, err
	}
	return &LadderEncoder{cfg: cfg, lenc: lenc}, nil
}

// QuarterConfig returns the depth configuration a quarter rung's decoder
// needs; ok is false when the ladder has no quarter rung.
func (e *LadderEncoder) QuarterConfig() (Config, bool) {
	vc, ok := e.lenc.QuarterConfig()
	if !ok {
		return Config{}, false
	}
	qcfg := e.cfg
	qcfg.Width, qcfg.Height = vc.Width, vc.Height
	return qcfg, true
}

// ForceKeyFrame forces the next frame to be a key frame on every rung.
func (e *LadderEncoder) ForceKeyFrame() { e.lenc.ForceKeyFrame() }

// mapInto maps a depth image into a single-plane staging frame of the
// image's own geometry (Scaled16 range mapping or verbatim values).
func (e *LadderEncoder) mapInto(im *frame.DepthImage, fp **vcodec.Frame) *vcodec.Frame {
	if *fp == nil || (*fp).W != im.W || (*fp).H != im.H {
		*fp = vcodec.NewFrame(im.W, im.H, 1)
	}
	f := *fp
	if e.cfg.Scheme == Scaled16 {
		scaleInto(f.Planes[0], im.Pix, e.cfg.MaxMM)
		return f
	}
	vcodec.FromDepthInto(im, f)
	return f
}

// stage validates and maps the full and quarter sources. A nil quarter is
// derived with the edge-aware Downsample2xInto (which, unlike a box filter,
// does not invent geometry between surfaces). Callers that stamp in-band
// markers must supply an explicitly stamped quarter image.
func (e *LadderEncoder) stage(im, quarter *frame.DepthImage) (*vcodec.Frame, *vcodec.Frame, error) {
	if im.W != e.cfg.Width || im.H != e.cfg.Height {
		return nil, nil, fmt.Errorf("depth: image %dx%d does not match config %dx%d", im.W, im.H, e.cfg.Width, e.cfg.Height)
	}
	f := e.mapInto(im, &e.vf)
	vc, hasQuarter := e.lenc.QuarterConfig()
	if !hasQuarter {
		return f, nil, nil
	}
	if quarter == nil {
		e.qim = Downsample2xInto(im, e.qim)
		quarter = e.qim
	}
	if quarter.W != vc.Width || quarter.H != vc.Height {
		return nil, nil, fmt.Errorf("depth: quarter image %dx%d does not match %dx%d", quarter.W, quarter.H, vc.Width, vc.Height)
	}
	qf := e.mapInto(quarter, &e.qvf)
	return f, qf, nil
}

// EncodeLadder rate-controls rung 0 to targetBytes and derives the other
// rungs; packets are indexed like the rungs and share Seq and Key.
func (e *LadderEncoder) EncodeLadder(im, quarter *frame.DepthImage, targetBytes int) ([]*vcodec.Packet, error) {
	f, qf, err := e.stage(im, quarter)
	if err != nil {
		return nil, err
	}
	return e.lenc.EncodeLadder(f, qf, targetBytes)
}

// EncodeLadderQP encodes rung 0 at a fixed QP and derives the other rungs.
func (e *LadderEncoder) EncodeLadderQP(im, quarter *frame.DepthImage, qp int) ([]*vcodec.Packet, error) {
	f, qf, err := e.stage(im, quarter)
	if err != nil {
		return nil, err
	}
	return e.lenc.EncodeLadderQP(f, qf, qp)
}

// LastReconDepth returns the rung-0 encoder-side reconstruction as a depth
// image (the splitter's quality probe, mirroring Encoder.LastReconDepth).
// The image is owned by the encoder and overwritten by the next call.
func (e *LadderEncoder) LastReconDepth() *frame.DepthImage {
	r := e.lenc.Encoder().LastRecon()
	if r == nil {
		return nil
	}
	if e.reconDepth == nil {
		e.reconDepth = frame.NewDepthImage(r.W, r.H)
	}
	e.cfg.fromVideoFrameInto(r, e.reconDepth, &e.tmpColor)
	return e.reconDepth
}

// Downsample2xInto halves a depth image into out, reused when its geometry
// matches, else (re)allocated. Each 2x2 block keeps the midpoint of its
// valid samples on a smooth surface and the nearest one across a
// discontinuity: averaging across depth edges would invent geometry
// between surfaces.
func Downsample2xInto(im *frame.DepthImage, out *frame.DepthImage) *frame.DepthImage {
	w, h := (im.W+1)/2, (im.H+1)/2
	if out == nil || out.W != w || out.H != h {
		out = frame.NewDepthImage(w, h)
	}
	var vals [4]uint16
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			n := 0
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					sx, sy := 2*x+dx, 2*y+dy
					if sx < im.W && sy < im.H {
						if v := im.At(sx, sy); v != 0 {
							vals[n] = v
							n++
						}
					}
				}
			}
			if n == 0 {
				out.Set(x, y, 0)
				continue
			}
			mn, mx := vals[0], vals[0]
			for _, v := range vals[1:n] {
				if v < mn {
					mn = v
				}
				if v > mx {
					mx = v
				}
			}
			if int(mx)-int(mn) < 100 { // smooth region: midpoint
				out.Set(x, y, (mn+mx)/2)
			} else { // discontinuity: keep the nearest surface
				out.Set(x, y, mn)
			}
		}
	}
	return out
}
