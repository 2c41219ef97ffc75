package vcodec

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"livo/internal/frame"
	"livo/internal/pipeline"
)

// Decode failure classes. Receivers branch on these to drive loss recovery
// (§A.1): a stale reference means a frame was skipped upstream and only a
// key frame (requested via PLI) can restart the prediction chain, while a
// corrupt packet is discarded and concealed.
var (
	// ErrCorrupt marks a packet that failed bitstream validation: truncated
	// or bit-flipped data must yield this error, never a panic.
	ErrCorrupt = errors.New("vcodec: corrupt packet")
	// ErrStaleReference marks a delta frame whose reference generation does
	// not match the decoder's state (the preceding frame was lost or
	// skipped); decoding it would silently drift.
	ErrStaleReference = errors.New("vcodec: stale reference")
)

// ExplicitZero is the sentinel for defaulted Config fields whose zero
// value selects the documented default: set MaxQP, ChromaQPOffset, or
// FlateLevel to ExplicitZero to request an actual value of 0 (e.g. chroma
// quantized like luma, or flate level 0 = stored blocks).
const ExplicitZero = -1

// Config selects the coding mode. The same Config must be used by encoder
// and decoder (in LiVo it is exchanged at session setup, like the camera
// calibration, §A.1).
type Config struct {
	Width, Height int
	NumPlanes     int // 1 (16-bit depth) or 3 (YCbCr color)
	BitDepth      int // 8 or 16
	// GOP is the key-frame interval in frames (a key frame is coded without
	// reference to the previous frame). Default 30 (one per second at 30fps).
	GOP int
	// SearchRadius is the motion search range in pixels; 0 selects
	// zero-motion inter prediction only (fast, the default — tiled camera
	// content has mostly static block positions, §3.2).
	SearchRadius int
	// MinQP/MaxQP bound the rate controller (defaults 0..51). Step sizes
	// scale with bit depth (see qpToStep), so the same QP range covers
	// 8-bit and 16-bit planes. MaxQP accepts ExplicitZero to pin the
	// controller at QP 0.
	MinQP, MaxQP int
	// ChromaQPOffset is added to the QP for planes 1 and 2, quantizing
	// chroma more coarsely than luma (default +6; ExplicitZero codes
	// chroma at the luma QP). This is the codec property LiVo's depth
	// encoding exploits: content in the Y plane is distorted less (§3.2).
	ChromaQPOffset int
	// Chroma420 codes planes 1 and 2 at half resolution (4:2:0), the
	// standard conferencing configuration. Ignored for single-plane
	// streams.
	Chroma420 bool
	// FlateLevel is the entropy-coder effort (flate level 1..9, default 4;
	// ExplicitZero selects flate level 0, i.e. stored blocks).
	FlateLevel int
}

func (c Config) withDefaults() Config {
	if c.GOP <= 0 {
		c.GOP = 30
	}
	switch c.MaxQP {
	case 0:
		c.MaxQP = 51
	case ExplicitZero:
		c.MaxQP = 0
	}
	switch c.ChromaQPOffset {
	case 0:
		c.ChromaQPOffset = 6
	case ExplicitZero:
		c.ChromaQPOffset = 0
	}
	switch c.FlateLevel {
	case 0:
		c.FlateLevel = 4
	case ExplicitZero:
		c.FlateLevel = 0
	}
	return c
}

// maxCodedQP is the largest QP a packet header may carry: the decoder
// rejects anything above it as corrupt, so MaxQP may not exceed it.
const maxCodedQP = 255

// Validate reports configuration errors in c with its defaults applied.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("vcodec: invalid size %dx%d", c.Width, c.Height)
	}
	if c.NumPlanes != 1 && c.NumPlanes != 3 {
		return fmt.Errorf("vcodec: NumPlanes must be 1 or 3, got %d", c.NumPlanes)
	}
	if c.BitDepth != 8 && c.BitDepth != 16 {
		return fmt.Errorf("vcodec: BitDepth must be 8 or 16, got %d", c.BitDepth)
	}
	if c.MinQP < 0 || c.MaxQP > maxCodedQP || c.MinQP > c.MaxQP {
		return fmt.Errorf("vcodec: QP range %d..%d is not within 0..%d", c.MinQP, c.MaxQP, maxCodedQP)
	}
	return nil
}

// ColorConfig returns the 3-plane 8-bit 4:2:0 configuration for a color
// stream.
func ColorConfig(w, h int) Config {
	return Config{Width: w, Height: h, NumPlanes: 3, BitDepth: 8, Chroma420: true}
}

// planeDims returns the coded resolution of plane p.
func (c Config) planeDims(p int) (int, int) {
	if p > 0 && c.Chroma420 {
		return (c.Width + 1) / 2, (c.Height + 1) / 2
	}
	return c.Width, c.Height
}

// codedPicture is the codec-internal reference state: planes at their coded
// (possibly subsampled) resolutions.
type codedPicture struct {
	planes [][]int32
}

// newCodedPicture allocates a zeroed picture at c's coded resolutions.
func newCodedPicture(c Config) *codedPicture {
	cp := &codedPicture{planes: make([][]int32, c.NumPlanes)}
	for p := range cp.planes {
		pw, ph := c.planeDims(p)
		cp.planes[p] = make([]int32, pw*ph)
	}
	return cp
}

// expandSpan is one row range of coded→full-resolution expansion work:
// output rows [y0, y1) of one plane. Spans are fixed-height (expandRows)
// regardless of worker count, so the work decomposition — and therefore
// every output byte — is identical at any GOMAXPROCS.
type expandSpan struct {
	plane  int
	y0, y1 int
}

// expandRows is the span height in output rows. A 4K plane splits into
// ~17 spans — enough to spread the ~40 MB of copies across cores without
// measurable per-span overhead.
const expandRows = 128

// appendExpandSpans slices the full-resolution output rows of every plane
// into spans.
func (c Config) appendExpandSpans(jobs []expandSpan) []expandSpan {
	for p := 0; p < c.NumPlanes; p++ {
		for y := 0; y < c.Height; y += expandRows {
			y1 := y + expandRows
			if y1 > c.Height {
				y1 = c.Height
			}
			jobs = append(jobs, expandSpan{plane: p, y0: y, y1: y1})
		}
	}
	return jobs
}

// expander runs the coded→full-resolution expansion with parallel row
// spans. It lives on the codec instance so the span table and the ParFor
// closure are built once and reused — the per-frame expand is
// allocation-free. Spans write disjoint output rows and only read cp, so
// the result is byte-identical to a sequential expansion at any worker
// count.
type expander struct {
	cfg  Config
	jobs []expandSpan
	cp   *codedPicture
	f    *Frame
	fn   func(int)
}

// expand expands cp into f.
func (e *expander) expand(cfg Config, cp *codedPicture, f *Frame) {
	if e.fn == nil {
		e.cfg = cfg
		e.jobs = cfg.appendExpandSpans(e.jobs[:0])
		e.fn = e.run
	}
	e.cp, e.f = cp, f
	pipeline.ParFor(len(e.jobs), e.fn)
	e.cp, e.f = nil, nil
}

// run processes span i of the current expand call.
func (e *expander) run(i int) {
	s := e.jobs[i]
	c := e.cfg
	pw, ph := c.planeDims(s.plane)
	if pw == c.Width && ph == c.Height {
		copy(e.f.Planes[s.plane][s.y0*c.Width:s.y1*c.Width],
			e.cp.planes[s.plane][s.y0*pw:s.y1*pw])
		return
	}
	upsample2xRows(e.cp.planes[s.plane], pw, ph, e.f.Planes[s.plane], c.Width, s.y0, s.y1)
}

// downsample2x box-filters a plane into dst at (dw, dh) = ceil(w/2) x
// ceil(h/2).
func downsample2x(src []int32, w, h int, dst []int32, dw, dh int) {
	// Interior 2x2 blocks are fully in-bounds; only the last column/row of
	// odd-sized planes need the clipped tap count.
	ex, ey := w/2, h/2
	for y := 0; y < ey; y++ {
		r0 := src[(2*y)*w : (2*y)*w+w]
		r1 := src[(2*y+1)*w : (2*y+1)*w+w]
		d := dst[y*dw : y*dw+dw]
		for x := 0; x < ex; x++ {
			s := r0[2*x] + r0[2*x+1] + r1[2*x] + r1[2*x+1]
			d[x] = (s + 2) / 4
		}
		if dw > ex { // odd width: single-column taps
			d[ex] = (r0[w-1] + r1[w-1] + 1) / 2
		}
	}
	if dh > ey { // odd height: single-row taps
		r0 := src[(h-1)*w : h*w]
		d := dst[ey*dw : ey*dw+dw]
		for x := 0; x < ex; x++ {
			d[x] = (r0[2*x] + r0[2*x+1] + 1) / 2
		}
		if dw > ex {
			d[ex] = r0[w-1]
		}
	}
}

// upsample2xRows nearest-neighbour expands output rows [y0, y1) only.
func upsample2xRows(src []int32, sw, sh int, dst []int32, w, y0, y1 int) {
	for y := y0; y < y1; y++ {
		sy := y / 2
		if sy >= sh {
			sy = sh - 1
		}
		srow := src[sy*sw : sy*sw+sw]
		drow := dst[y*w : y*w+w]
		for x := range drow {
			sx := x / 2
			if sx >= sw {
				sx = sw - 1
			}
			drow[x] = srow[sx]
		}
	}
}

// DepthConfig returns the 1-plane 16-bit configuration for a depth stream
// (the Y444_16LE analogue, §3.2).
func DepthConfig(w, h int) Config {
	return Config{Width: w, Height: h, NumPlanes: 1, BitDepth: 16}
}

// Packet is one encoded frame.
type Packet struct {
	Data []byte // self-contained compressed frame
	Key  bool   // key (intra-only) frame
	Seq  uint32 // frame sequence number
	QP   int    // quantization parameter the rate controller chose
	// Rung is quality-ladder metadata (not part of the bitstream): which
	// ladder rung this packet encodes, 0 for single-rung streams. Receivers
	// use it to route quarter-resolution rungs through the upsampling path.
	Rung uint8
}

// SizeBytes returns the packet payload size.
func (p *Packet) SizeBytes() int { return len(p.Data) }

// block prediction modes.
const (
	modeInterZero = 0 // predict from co-located block of previous frame
	modeIntra     = 1 // predict mid-level constant
	modeInterMV   = 2 // predict from motion-compensated block
)

// Encoder is a stateful single-stream encoder. Not safe for concurrent use.
//
// The hot path is stripe-parallel (see stripe.go) and allocation-free in
// steady state: reference pictures ping-pong between two arena pictures,
// stripe writers and subsampling scratch come from a per-encoder freelist,
// and the deflate state is reused across frames. The only per-frame
// allocation is the returned Packet payload.
type Encoder struct {
	cfg  Config
	prev *codedPicture // previous reconstructed picture (coded dims)
	seq  uint32
	// forceKey is atomic because ForceKeyFrame arrives from the feedback
	// goroutine (PLI path) while Encode runs on the frame loop; everything
	// else on the encoder is single-goroutine.
	forceKey atomic.Bool
	// Rate model: log2(bytes) ≈ modelA - QP/6. Updated after every frame.
	modelA   float64
	hasModel bool
	lastQP   int
	// prevBackup holds the reference state from before the current encode
	// so a corrective re-encode can roll back.
	prevBackup *codedPicture

	// Steady-state arena. pics are the two reconstruction buffers the
	// prev pointer ping-pongs between; reconFrame caches the LastRecon
	// output; def holds reusable deflate state; scr owns the stripe
	// writers and chroma buffers; the slices below are per-frame job
	// scratch reused across encodes.
	pics       [2]*codedPicture
	reconFrame *Frame
	def        deflater
	scr        scratch
	srcPlanes  [][]int32
	planes     []planeCode
	jobs       []encStripe
	exp        expander
}

// NewEncoder creates an encoder; the config is validated and defaulted.
func NewEncoder(cfg Config) (*Encoder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	e := &Encoder{cfg: cfg, lastQP: 26}
	e.pics[0] = newCodedPicture(cfg)
	e.pics[1] = newCodedPicture(cfg)
	return e, nil
}

// Config returns the encoder's (defaulted) configuration.
func (e *Encoder) Config() Config { return e.cfg }

// ForceKeyFrame makes the next encoded frame a key frame — the reaction to
// a Picture Loss Indication from the receiver (§A.1). Unlike the rest of
// the encoder it is safe to call concurrently with Encode, because PLIs
// arrive on the session's feedback goroutine.
func (e *Encoder) ForceKeyFrame() { e.forceKey.Store(true) }

// LastRecon returns the encoder's reconstruction of the last encoded frame
// (what the decoder will see). LiVo's bandwidth splitter compares this to
// the source frame to estimate encoding quality without a separate decode
// (§3.3 runs parallel decoders on a GPU; sharing the encoder's recon is the
// CPU equivalent).
//
// The returned frame is owned by the encoder and overwritten by the next
// LastRecon call — the split controller probes it once per tick, so this
// avoids allocating a full-resolution frame per frame. Callers that need
// to retain it must Clone it.
func (e *Encoder) LastRecon() *Frame {
	if e.prev == nil {
		return nil
	}
	if e.reconFrame == nil {
		e.reconFrame = NewFrame(e.cfg.Width, e.cfg.Height, e.cfg.NumPlanes)
	}
	e.exp.expand(e.cfg, e.prev, e.reconFrame)
	return e.reconFrame
}

// EncodeQP encodes f at a fixed quantization parameter, bypassing rate
// control (used by the LiVo-NoAdapt/Starline baseline, §4.5).
func (e *Encoder) EncodeQP(f *Frame, qp int) (*Packet, error) {
	return e.encode(f, qp)
}

// Encode encodes f so the packet is close to targetBytes. This is the
// "direct" rate adaptation of §1/§3.3: the caller passes the byte budget
// derived from the congestion controller's bandwidth estimate and the frame
// rate, and the encoder picks QP internally (re-encoding once if the first
// attempt misses badly, as real rate-controlled encoders do).
func (e *Encoder) Encode(f *Frame, targetBytes int) (*Packet, error) {
	if targetBytes <= 0 {
		return nil, fmt.Errorf("vcodec: non-positive target %d", targetBytes)
	}
	qp := e.lastQP
	if e.hasModel {
		qp = int(math.Round(6 * (e.modelA - math.Log2(float64(targetBytes)))))
	}
	qp = clampQP(qp, e.cfg.MinQP, e.cfg.MaxQP)

	pkt, err := e.encode(f, qp)
	if err != nil {
		return nil, err
	}
	// Corrective re-encodes when the model missed: near the rate floor the
	// bytes-vs-QP curve flattens (per-block overhead dominates), so a
	// single slope-based correction may fall short — iterate with growing
	// steps until the frame fits or QP saturates. Key frames are allowed
	// 2x slack (they are periodic and the jitter buffer absorbs them, like
	// real conferencing encoders).
	limit := 1.2
	if pkt.Key {
		limit = 2.0
	}
	for attempt := 0; attempt < 3; attempt++ {
		ratio := float64(pkt.SizeBytes()) / float64(targetBytes)
		if ratio <= limit || qp >= e.cfg.MaxQP {
			break
		}
		stepUp := int(math.Ceil(6 * math.Log2(ratio)))
		if stepUp < 4 {
			stepUp = 4
		}
		qp2 := clampQP(qp+stepUp, e.cfg.MinQP, e.cfg.MaxQP)
		if qp2 == qp {
			break
		}
		// Roll back state from the previous attempt before re-encoding.
		e.seq--
		if pkt.Key {
			e.forceKey.Store(true)
		}
		e.prev = e.prevBackup
		pkt, err = e.encode(f, qp2)
		if err != nil {
			return nil, err
		}
		qp = qp2
	}
	return pkt, nil
}

func clampQP(qp, lo, hi int) int {
	if qp < lo {
		return lo
	}
	if qp > hi {
		return hi
	}
	return qp
}

// encode performs one full encode at the given QP and updates state.
func (e *Encoder) encode(f *Frame, qp int) (*Packet, error) {
	if f.W != e.cfg.Width || f.H != e.cfg.Height || len(f.Planes) != e.cfg.NumPlanes {
		return nil, fmt.Errorf("vcodec: frame %dx%d/%dp does not match config %dx%d/%dp",
			f.W, f.H, len(f.Planes), e.cfg.Width, e.cfg.Height, e.cfg.NumPlanes)
	}
	qp = clampQP(qp, e.cfg.MinQP, e.cfg.MaxQP)
	// Swap (not Load) so a pending force request is always consumed here,
	// even when this frame is a key frame for another reason.
	forced := e.forceKey.Swap(false)
	key := e.prev == nil || forced || (e.cfg.GOP > 0 && int(e.seq)%e.cfg.GOP == 0)
	e.prevBackup = e.prev

	// Coded-resolution source: full-resolution planes alias the caller's
	// frame, subsampled chroma goes through reused scratch.
	e.scr.reset()
	e.srcPlanes = e.srcPlanes[:0]
	for p := range f.Planes {
		pw, ph := e.cfg.planeDims(p)
		if pw == f.W && ph == f.H {
			e.srcPlanes = append(e.srcPlanes, f.Planes[p])
			continue
		}
		buf := e.scr.getPlaneBuf(pw * ph)
		downsample2x(f.Planes[p], f.W, f.H, buf, pw, ph)
		e.srcPlanes = append(e.srcPlanes, buf)
	}

	// Reconstruct into whichever arena picture is not the live reference.
	recon := e.pics[0]
	if recon == e.prev {
		recon = e.pics[1]
	}

	maxVal := int32(1<<e.cfg.BitDepth - 1)
	mid := int32(1 << (e.cfg.BitDepth - 1))
	e.planes = e.planes[:0]
	for p := range f.Planes {
		pw, ph := e.cfg.planeDims(p)
		pqp := qp
		if p > 0 {
			pqp = clampQP(qp+e.cfg.ChromaQPOffset, e.cfg.MinQP, e.cfg.MaxQP)
		}
		var prevPlane []int32
		if !key {
			prevPlane = e.prev.planes[p]
		}
		e.planes = append(e.planes, planeCode{
			src: e.srcPlanes[p], prev: prevPlane, recon: recon.planes[p],
			w: pw, h: ph,
			maxVal: maxVal, mid: mid,
			step:   qpToStep(pqp, e.cfg.BitDepth),
			radius: e.cfg.SearchRadius,
		})
	}
	e.jobs = e.jobs[:0]
	for p := range e.planes {
		e.jobs = appendEncStripes(e.jobs, &e.planes[p], &e.scr)
	}
	runEncStripes(e.jobs)

	// Assemble payload: three length-prefixed streams, deflated. Stripe
	// buffers are concatenated in (plane, stripe) order — the order the
	// sequential coder emitted symbols — so the bitstream is byte-identical
	// for any worker count.
	payload := e.scr.getWriter()
	var mLen, vLen, cLen uint64
	for i := range e.jobs {
		mLen += uint64(len(e.jobs[i].modes.buf))
		vLen += uint64(len(e.jobs[i].mvs.buf))
		cLen += uint64(len(e.jobs[i].coeffs.buf))
	}
	payload.writeUvarint(mLen)
	for i := range e.jobs {
		payload.buf = append(payload.buf, e.jobs[i].modes.buf...)
	}
	payload.writeUvarint(vLen)
	for i := range e.jobs {
		payload.buf = append(payload.buf, e.jobs[i].mvs.buf...)
	}
	payload.writeUvarint(cLen)
	for i := range e.jobs {
		payload.buf = append(payload.buf, e.jobs[i].coeffs.buf...)
	}

	hdr := e.scr.getWriter()
	hdr.writeByte('V')
	flags := byte(0)
	if key {
		flags |= 1
	}
	hdr.writeByte(flags)
	hdr.writeUvarint(uint64(e.seq))
	hdr.writeUvarint(uint64(qp))

	data, err := e.def.compress(hdr.buf, payload.buf, e.cfg.FlateLevel)
	if err != nil {
		return nil, err
	}

	pkt := &Packet{Data: data, Key: key, Seq: e.seq, QP: qp}
	e.seq++
	e.prev = recon
	// Update the rate model (EWMA over log-domain intercepts).
	a := math.Log2(float64(len(data))) + float64(qp)/6
	if !e.hasModel {
		e.modelA = a
		e.hasModel = true
	} else {
		e.modelA = float64(0.7*e.modelA) + float64(0.3*a) // rounded: no FMA
	}
	e.lastQP = qp
	return pkt, nil
}

// interior reports whether the block at (x0, y0) lies wholly inside a
// w x h plane, so the block loops can copy whole 8-sample rows with no
// edge handling. Edge blocks take the clamped loops.
func interior(w, h, x0, y0 int) bool {
	return x0 >= 0 && y0 >= 0 && x0+blockSize <= w && y0+blockSize <= h
}

// gather copies the block at (x0, y0) from plane into dst with edge
// clamping for out-of-bounds samples.
func gather(plane []int32, w, h, x0, y0 int, dst *[blockSize * blockSize]int32) {
	if interior(w, h, x0, y0) {
		for y := 0; y < blockSize; y++ {
			d := (*[blockSize]int32)(dst[y*blockSize:])
			s := (*[blockSize]int32)(plane[(y0+y)*w+x0:])
			for x := range d {
				d[x] = s[x]
			}
		}
		return
	}
	for y := 0; y < blockSize; y++ {
		sy := y0 + y
		if sy < 0 {
			sy = 0
		}
		if sy >= h {
			sy = h - 1
		}
		row := plane[sy*w:]
		for x := 0; x < blockSize; x++ {
			sx := x0 + x
			if sx < 0 {
				sx = 0
			}
			if sx >= w {
				sx = w - 1
			}
			dst[y*blockSize+x] = row[sx]
		}
	}
}

// reconBlock reconstructs the block at (x0, y0) into plane: the
// prediction plus the inverse transform of coeffs (quantized levels in
// zigzag order, dequantized by step), clamped to [0, maxVal]. It is the
// one reconstruction path of encoder, decoder and transcoder. No
// coefficients is the prediction alone; a DC-only block adds its
// once-rounded constant (bit-identical to the transform plus per-pixel
// rounding); anything else goes through idct2dBounded.
func reconBlock(plane []int32, w, h, x0, y0 int, pred *[blockSize * blockSize]int32, coeffs []int64, step float64, maxVal int32) {
	if len(coeffs) == 0 {
		scatterPredDelta(plane, w, h, x0, y0, pred, 0, maxVal)
		return
	}
	kr, kc := coeffBounds(coeffs)
	if kr == 0 && kc == 0 {
		scatterPredDelta(plane, w, h, x0, y0, pred, dcDelta(float64(coeffs[0])*step), maxVal)
		return
	}
	var fblk [blockSize * blockSize]float64
	for k, c := range coeffs {
		if c != 0 {
			fblk[zigzag[k]] = float64(c) * step
		}
	}
	idct2dBounded(&fblk, kc)
	scatter(plane, w, h, x0, y0, pred, &fblk, maxVal)
}

// scatter writes pred+residual (clamped) into the in-bounds part of the
// block at (x0, y0).
func scatter(plane []int32, w, h, x0, y0 int, pred *[blockSize * blockSize]int32, resid *[blockSize * blockSize]float64, maxVal int32) {
	if interior(w, h, x0, y0) {
		for y := 0; y < blockSize; y++ {
			row := (*[blockSize]int32)(plane[(y0+y)*w+x0:])
			p := (*[blockSize]int32)(pred[y*blockSize:])
			r := (*[blockSize]float64)(resid[y*blockSize:])
			for x := range row {
				row[x] = clampI32(p[x]+int32(math.Round(r[x])), 0, maxVal)
			}
		}
		return
	}
	for y := 0; y < blockSize; y++ {
		sy := y0 + y
		if sy >= h {
			break
		}
		for x := 0; x < blockSize; x++ {
			sx := x0 + x
			if sx >= w {
				break
			}
			v := pred[y*blockSize+x] + int32(math.Round(resid[y*blockSize+x]))
			plane[sy*w+sx] = clampI32(v, 0, maxVal)
		}
	}
}

// scatterPredDelta writes pred plus a constant residual delta, clamped,
// into the in-bounds part of the block at (x0, y0): the DC-only fast path,
// bit-identical to scatter over a constant plane, and with delta 0 the
// zero-residual path.
func scatterPredDelta(plane []int32, w, h, x0, y0 int, pred *[blockSize * blockSize]int32, delta, maxVal int32) {
	if interior(w, h, x0, y0) {
		for y := 0; y < blockSize; y++ {
			row := (*[blockSize]int32)(plane[(y0+y)*w+x0:])
			p := (*[blockSize]int32)(pred[y*blockSize:])
			for x := range row {
				row[x] = clampI32(p[x]+delta, 0, maxVal)
			}
		}
		return
	}
	for y := 0; y < blockSize; y++ {
		sy := y0 + y
		if sy >= h {
			break
		}
		for x := 0; x < blockSize; x++ {
			sx := x0 + x
			if sx >= w {
				break
			}
			plane[sy*w+sx] = clampI32(pred[y*blockSize+x]+delta, 0, maxVal)
		}
	}
}

func sad(a, b *[blockSize * blockSize]int32) int64 {
	var s int64
	for i := range a {
		d := int64(a[i] - b[i])
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s
}

func sadConst(a *[blockSize * blockSize]int32, c int32) int64 {
	var s int64
	for i := range a {
		d := int64(a[i] - c)
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s
}

func fillConst(b *[blockSize * blockSize]int32, c int32) {
	for i := range b {
		b[i] = c
	}
}

// Decoder is a stateful single-stream decoder. Packets must be fed in
// encode order; a key packet resets the prediction chain. Not safe for
// concurrent use.
//
// Decoding runs in two phases: a serial symbol parse (the varint streams
// have no random access) into reused per-block tables, then
// stripe-parallel reconstruction (see stripe.go). Reference pictures
// ping-pong between two arena pictures, the inflate state is reused, and
// the output frame is a per-decoder arena — the steady-state decode path
// does not allocate.
//
// The returned Frame is owned by the decoder and overwritten by the next
// Decode call (mirroring Encoder.LastRecon); callers that retain a frame
// across decodes must Clone it. The receive pipeline converts it to an
// RGB/depth image immediately, so it never holds the frame.
type Decoder struct {
	cfg    Config
	prev   *codedPicture
	refSeq uint32 // sequence number of prev (valid when prev != nil)

	pics    [2]*codedPicture
	out     *Frame
	inf     inflater
	scr     scratch
	planes  []planeDecode
	jobs    []decStripe
	jobFn   func(int) // cached ParFor body over d.jobs
	payload byteReader
	streams [3]byteReader
	exp     expander
	rgb     rgbConverter
}

// NewDecoder creates a decoder with the same configuration as the encoder.
func NewDecoder(cfg Config) (*Decoder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	d := &Decoder{cfg: cfg}
	d.pics[0] = newCodedPicture(cfg)
	d.pics[1] = newCodedPicture(cfg)
	return d, nil
}

// HasReference reports whether the decoder holds a decoded reference
// picture (i.e. a delta frame could be decoded next).
func (d *Decoder) HasReference() bool { return d.prev != nil }

// maxPayloadBytes bounds the inflated payload so a crafted packet cannot
// act as a decompression bomb: per block the streams hold at most one mode
// byte, two motion-vector varints, a count varint, and blockSize^2
// coefficient varints (≤ 10 bytes each), plus three stream-length
// prefixes.
func (c Config) maxPayloadBytes() int {
	samples := 0
	for p := 0; p < c.NumPlanes; p++ {
		pw, ph := c.planeDims(p)
		samples += pw * ph
	}
	return 64 + samples*12
}

// decode is the uninstrumented decode core: it parses and reconstructs pkt
// and returns the new reference picture at its coded resolutions.
// decodePicture (telemetry.go) wraps it with the decode-error counter.
func (d *Decoder) decode(pkt *Packet) (*codedPicture, error) {
	r := &byteReader{buf: pkt.Data}
	magic, err := r.readByte()
	if err != nil || magic != 'V' {
		return nil, fmt.Errorf("vcodec: bad packet magic: %w", ErrCorrupt)
	}
	flags, err := r.readByte()
	if err != nil {
		return nil, fmt.Errorf("vcodec: truncated flags: %w", ErrCorrupt)
	}
	key := flags&1 != 0
	seq64, err := r.readUvarint()
	if err != nil {
		return nil, fmt.Errorf("vcodec: truncated seq: %w", ErrCorrupt)
	}
	if seq64 > math.MaxUint32 {
		return nil, fmt.Errorf("vcodec: sequence %d out of range: %w", seq64, ErrCorrupt)
	}
	seq := uint32(seq64)
	qp64, err := r.readUvarint()
	if err != nil {
		return nil, fmt.Errorf("vcodec: truncated qp: %w", ErrCorrupt)
	}
	if qp64 > maxCodedQP {
		return nil, fmt.Errorf("vcodec: qp %d out of range: %w", qp64, ErrCorrupt)
	}
	// The encoder clamps QP into [MinQP, MaxQP] before writing it, so
	// clamping here is a no-op for valid streams and bounds the quantizer
	// step for corrupted ones.
	qp := clampQP(int(qp64), d.cfg.MinQP, d.cfg.MaxQP)
	if !key {
		// Reference-generation check (§A.1): a delta frame is only valid
		// against the reconstruction of the immediately preceding frame.
		// Decoding it against anything older (a frame was skipped) or
		// nothing at all would drift silently.
		if d.prev == nil {
			return nil, fmt.Errorf("vcodec: delta frame %d without reference: %w", seq, ErrStaleReference)
		}
		if seq != d.refSeq+1 {
			return nil, fmt.Errorf("vcodec: delta frame %d against reference %d: %w", seq, d.refSeq, ErrStaleReference)
		}
	}

	payload, err := d.inf.decompress(pkt.Data[r.pos:], d.cfg.maxPayloadBytes())
	if err != nil {
		return nil, fmt.Errorf("%v: %w", err, ErrCorrupt)
	}
	// The three symbol streams live in decoder-owned readers so the
	// steady-state path does not allocate them per frame.
	pr := &d.payload
	*pr = byteReader{buf: payload}
	for i := range d.streams {
		n, err := pr.readUvarint()
		if err != nil {
			return nil, fmt.Errorf("%v: %w", err, ErrCorrupt)
		}
		if n > uint64(len(pr.buf)) || pr.pos+int(n) > len(pr.buf) {
			return nil, fmt.Errorf("vcodec: stream overruns payload: %w", ErrCorrupt)
		}
		d.streams[i] = byteReader{buf: pr.buf[pr.pos : pr.pos+int(n)]}
		pr.pos += int(n)
	}
	modes, mvs, coeffs := &d.streams[0], &d.streams[1], &d.streams[2]

	cfg := d.cfg
	recon := d.pics[0]
	if recon == d.prev {
		recon = d.pics[1]
	}

	// Phase 1: serial symbol parse into reused per-block tables.
	d.scr.reset()
	var parsed [3]*parsedPlane
	for p := 0; p < cfg.NumPlanes; p++ {
		pw, ph := cfg.planeDims(p)
		bx := (pw + blockSize - 1) / blockSize
		by := (ph + blockSize - 1) / blockSize
		pp := d.scr.getParsed(bx * by)
		parsed[p] = pp
		if err := parsePlane(pp, bx*by, key, modes, mvs, coeffs); err != nil {
			return nil, fmt.Errorf("vcodec: plane %d: %v: %w", p, err, ErrCorrupt)
		}
	}
	// All three streams must be consumed exactly: leftover symbols mean the
	// payload does not describe this configuration's block grid.
	if modes.pos != len(modes.buf) || mvs.pos != len(mvs.buf) || coeffs.pos != len(coeffs.buf) {
		return nil, fmt.Errorf("vcodec: trailing symbols after parse: %w", ErrCorrupt)
	}

	// Phase 2: stripe-parallel reconstruction. The reference (d.prev) is
	// only read, recon stripes are disjoint, and d.prev is swapped only on
	// success — a failed parse above leaves the decoder state untouched.
	maxVal := int32(1<<cfg.BitDepth - 1)
	mid := int32(1 << (cfg.BitDepth - 1))
	d.planes = d.planes[:0]
	for p := 0; p < cfg.NumPlanes; p++ {
		pw, ph := cfg.planeDims(p)
		pqp := qp
		if p > 0 {
			pqp = clampQP(qp+cfg.ChromaQPOffset, cfg.MinQP, cfg.MaxQP)
		}
		var prevPlane []int32
		if !key {
			prevPlane = d.prev.planes[p]
		}
		d.planes = append(d.planes, planeDecode{
			pp: parsed[p], prev: prevPlane, recon: recon.planes[p],
			w: pw, h: ph,
			maxVal: maxVal, mid: mid,
			step: qpToStep(pqp, cfg.BitDepth),
		})
	}
	d.jobs = d.jobs[:0]
	for p := range d.planes {
		d.jobs = appendDecStripes(d.jobs, &d.planes[p])
	}
	if d.jobFn == nil {
		d.jobFn = func(i int) { d.jobs[i].decode() }
	}
	pipeline.ParFor(len(d.jobs), d.jobFn)

	d.prev = recon
	d.refSeq = seq
	return recon, nil
}

// Decode reconstructs one frame from a packet. Malformed input returns an
// error wrapping ErrCorrupt; a delta frame that does not extend the
// decoder's current reference returns an error wrapping ErrStaleReference.
// Decoder state is only advanced on success, so a failed packet can be
// skipped and decoding resumed at the next key frame.
//
// The returned frame is owned by the decoder and overwritten by the next
// successful Decode call; Clone it to retain it across decodes.
func (d *Decoder) Decode(pkt *Packet) (*Frame, error) {
	cp, err := d.decodePicture(pkt)
	if err != nil {
		return nil, err
	}
	if d.out == nil {
		d.out = NewFrame(d.cfg.Width, d.cfg.Height, d.cfg.NumPlanes)
	}
	d.exp.expand(d.cfg, cp, d.out)
	return d.out, nil
}

// DecodeColorInto decodes a 3-plane colour packet straight into im, which
// must have the stream's geometry. It converts the coded reconstruction to
// RGB in one row-striped pass, sampling 4:2:0 chroma nearest-neighbour as
// Decode's upsampling does, so im equals Decode followed by ToColorInto
// byte for byte, without the full-resolution planes in between. Errors and
// decoder state are Decode's; a geometry mismatch is rejected before
// decoding.
func (d *Decoder) DecodeColorInto(pkt *Packet, im *frame.ColorImage) error {
	if d.cfg.NumPlanes != 3 {
		return fmt.Errorf("vcodec: DecodeColorInto on a %d-plane stream", d.cfg.NumPlanes)
	}
	if im.W != d.cfg.Width || im.H != d.cfg.Height || len(im.Pix) < 3*im.W*im.H {
		return fmt.Errorf("vcodec: image %dx%d does not match stream %dx%d", im.W, im.H, d.cfg.Width, d.cfg.Height)
	}
	cp, err := d.decodePicture(pkt)
	if err != nil {
		return err
	}
	d.rgb.convert(d.cfg, cp, im)
	return nil
}

// DecodeLuma decodes pkt and returns plane 0 of the reconstruction, which
// is coded at full resolution: Width*Height samples in raster order. The
// slice is the decoder's reference picture: read it, never write it, and
// only until the next decode. Errors and decoder state are Decode's. The
// depth stream's single plane is read from here without Decode's copy.
func (d *Decoder) DecodeLuma(pkt *Packet) ([]int32, error) {
	cp, err := d.decodePicture(pkt)
	if err != nil {
		return nil, err
	}
	return cp.planes[0], nil
}
