// Package vcodec is a rate-adaptive 2D video codec built from scratch on the
// stdlib. It stands in for the hardware H.265 encoders LiVo uses (NVENC via
// GStreamer, §4.1) and provides the four properties LiVo's design depends on
// (§3.2, §3.3; DESIGN.md):
//
//  1. direct rate adaptation — Encode takes a target size per frame and
//     selects the quantization parameter to hit it;
//  2. inter-frame prediction — P-frames predict blocks from the previous
//     reconstructed frame (zero-motion, optional motion search) so static
//     tiled content costs almost nothing;
//  3. block-transform quantization — an 8x8 DCT with an H.265-style
//     QP-to-step mapping (step doubles every 6 QP), which compresses smooth
//     regions well and distorts discontinuities, exactly the behaviour
//     LiVo's depth-scaling design reasons about;
//  4. a 16-bit single-plane mode — the Y444_16LE analogue used for depth.
//
// Color frames are coded as 3 planes in YCbCr with a chroma QP offset (the
// luminance plane is quantized more finely, the property LiVo's depth
// encoding exploits by storing depth in Y).
package vcodec

import (
	"livo/internal/frame"
	"livo/internal/pipeline"
)

// Frame is a codec-internal picture: one or three planes of int32 samples.
type Frame struct {
	W, H   int
	Planes [][]int32 // len 1 (depth) or 3 (Y, Cb, Cr)
}

// NewFrame allocates a zeroed frame with nplanes planes.
func NewFrame(w, h, nplanes int) *Frame {
	f := &Frame{W: w, H: h, Planes: make([][]int32, nplanes)}
	for i := range f.Planes {
		f.Planes[i] = make([]int32, w*h)
	}
	return f
}

// Clone deep-copies the frame.
func (f *Frame) Clone() *Frame {
	c := NewFrame(f.W, f.H, len(f.Planes))
	for i := range f.Planes {
		copy(c.Planes[i], f.Planes[i])
	}
	return c
}

func clampI32(x, lo, hi int32) int32 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// FromColor converts an RGB image to a 3-plane YCbCr frame (BT.601 full
// range, the JPEG convention).
func FromColor(im *frame.ColorImage) *Frame {
	f := NewFrame(im.W, im.H, 3)
	FromColorInto(im, f)
	return f
}

// convSpan is the span, in pixels, of the striped colour conversions.
// Fixed (not derived from GOMAXPROCS) so the work decomposition is the same
// at any worker count, and large enough that a conferencing-size frame
// (192x96) converts as one inline span.
const convSpan = 1 << 15

// FromColorInto converts an RGB image into an existing 3-plane frame of
// the same geometry without allocating a frame (the sender's per-tick
// path). Spans of convSpan pixels convert in parallel.
func FromColorInto(im *frame.ColorImage, f *Frame) {
	n := im.W * im.H
	pipeline.ParFor((n+convSpan-1)/convSpan, func(s int) {
		lo := s * convSpan
		fromColorSpan(im.Pix, f, lo, min(lo+convSpan, n))
	})
}

// fromColorSpan converts pixels [lo, hi).
func fromColorSpan(pix []uint8, f *Frame, lo, hi int) {
	yp, cbp, crp := f.Planes[0][lo:hi], f.Planes[1][lo:hi], f.Planes[2][lo:hi]
	pix = pix[3*lo : 3*hi]
	for i := range yp {
		px := (*[3]uint8)(pix[3*i:])
		r := int32(px[0])
		g := int32(px[1])
		b := int32(px[2])
		// Fixed-point (x256) BT.601 full-range conversion.
		y := (77*r + 150*g + 29*b + 128) >> 8
		cb := ((-43*r-85*g+128*b+128)>>8 + 128)
		cr := ((128*r-107*g-21*b+128)>>8 + 128)
		yp[i] = clampI32(y, 0, 255)
		cbp[i] = clampI32(cb, 0, 255)
		crp[i] = clampI32(cr, 0, 255)
	}
}

// ToColorInto converts a 3-plane YCbCr frame into an existing RGB image of
// the same geometry without allocating.
func (f *Frame) ToColorInto(im *frame.ColorImage) {
	n := f.W * f.H
	yp, cbp, crp := f.Planes[0][:n], f.Planes[1][:n], f.Planes[2][:n]
	pix := im.Pix[:3*n]
	for i, y := range yp {
		toRGB(y, cbp[i], crp[i], (*[3]uint8)(pix[3*i:]))
	}
}

// toRGB is the one inverse colour transform: fixed-point BT.601 full range,
// clamped to 8 bits.
func toRGB(y, cb, cr int32, px *[3]uint8) {
	cb -= 128
	cr -= 128
	px[0] = uint8(min(max(y+(359*cr+128)>>8, 0), int32(255)))
	px[1] = uint8(min(max(y-(88*cb+183*cr+128)>>8, 0), int32(255)))
	px[2] = uint8(min(max(y+(454*cb+128)>>8, 0), int32(255)))
}

// rgbConverter is DecodeColorInto's conversion from a coded picture to RGB
// in fixed row spans of about convSpan pixels. Chroma planes coded at half
// resolution are sampled nearest-neighbour (row y reads chroma row y/2,
// column x chroma column x/2), exactly the samples upsample2xRows expands.
// It lives on the decoder so the span count and the ParFor closure are
// built once; spans write disjoint rows and only read the picture.
type rgbConverter struct {
	cfg     Config
	rows, n int // rows per span, spans
	cp      *codedPicture
	im      *frame.ColorImage
	fn      func(int)
}

func (c *rgbConverter) convert(cfg Config, cp *codedPicture, im *frame.ColorImage) {
	if c.fn == nil {
		c.cfg = cfg
		c.rows = max(1, convSpan/cfg.Width)
		c.n = (cfg.Height + c.rows - 1) / c.rows
		c.fn = c.run
	}
	c.cp, c.im = cp, im
	pipeline.ParFor(c.n, c.fn)
	c.cp, c.im = nil, nil
}

// run converts the rows of span i.
func (c *rgbConverter) run(i int) {
	w := c.cfg.Width
	cw, _ := c.cfg.planeDims(1)
	shift := 0 // 4:2:0 chroma is ceil(w/2) x ceil(h/2): x>>1 and y>>1 stay inside it
	if cw != w {
		shift = 1
	}
	y0 := i * c.rows
	y1 := min(y0+c.rows, c.cfg.Height)
	yp, cbp, crp := c.cp.planes[0], c.cp.planes[1], c.cp.planes[2]
	for y := y0; y < y1; y++ {
		cy := y >> shift
		cbr := cbp[cy*cw : cy*cw+cw]
		crr := crp[cy*cw : cy*cw+cw]
		pix := c.im.Pix[3*y*w : 3*(y+1)*w]
		for x, lum := range yp[y*w : y*w+w] {
			toRGB(lum, cbr[x>>shift], crr[x>>shift], (*[3]uint8)(pix[3*x:]))
		}
	}
}

// FromDepthInto copies a depth image into an existing single-plane frame
// of the same geometry without allocating. Values are copied verbatim (any
// scaling is the caller's job; see codec/depth).
func FromDepthInto(im *frame.DepthImage, f *Frame) {
	for i, d := range im.Pix {
		f.Planes[0][i] = int32(d)
	}
}

// rmseChunk is the fixed shard size for parallel error sums. Fixed (not
// derived from GOMAXPROCS) so the floating-point summation order — each
// chunk accumulated left to right, chunk partials combined in chunk order
// — is identical at any worker count.
const rmseChunk = 1 << 17

// ChunkedSquaredError accumulates per-chunk sums of squared int32
// differences over fixed-size shards in parallel. partials is reused
// scratch (pass nil to allocate); the return value is the slice of chunk
// sums in chunk order. Slices must have equal length.
func ChunkedSquaredError(a, b []int32, partials []float64) []float64 {
	nChunks := (len(a) + rmseChunk - 1) / rmseChunk
	if cap(partials) < nChunks {
		partials = make([]float64, nChunks)
	}
	partials = partials[:nChunks]
	pipeline.ParFor(nChunks, func(c int) {
		lo := c * rmseChunk
		hi := lo + rmseChunk
		if hi > len(a) {
			hi = len(a)
		}
		var s float64
		for i := lo; i < hi; i++ {
			d := float64(a[i] - b[i])
			s += float64(d * d) // rounded: no FMA, the same sum on every GOARCH
		}
		partials[c] = s
	})
	return partials
}

// PlaneRMSE returns the root-mean-square error between the corresponding
// planes of a and b — the sender-side quality estimate LiVo's bandwidth
// splitter uses instead of PointSSIM (§3.3). Frames must have identical
// geometry. The scan shards across cores (it walks full 4K planes on the
// sender hot path every probe tick) with a worker-count-independent
// summation order.
func PlaneRMSE(a, b *Frame) float64 {
	var sum float64
	var n int
	var partials []float64
	for p := range a.Planes {
		partials = ChunkedSquaredError(a.Planes[p], b.Planes[p], partials)
		for _, s := range partials {
			sum += s
		}
		n += len(a.Planes[p])
	}
	if n == 0 {
		return 0
	}
	return sqrt(sum / float64(n))
}
