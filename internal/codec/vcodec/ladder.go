package vcodec

import (
	"fmt"
	"math"

	"livo/internal/pipeline"
)

// Quality ladder: one source frame encoded once at K quality rungs so an
// SFU relay can serve each subscriber the best rung its downlink affords
// (DESIGN.md §8). Rung 0 is the full encode; every additional rung is
// derived from it far cheaper than an independent encode:
//
//   - a same-resolution rung re-uses rung 0's mode and motion-vector
//     streams byte-for-byte and only requantizes the transform
//     coefficients at a coarser step (a fused requantization transcode:
//     no source conversion, no SAD/mode decision, no forward DCT). Its
//     reference pictures are tracked closed-loop — the reconstruction
//     mirrors exactly what that rung's decoder computes — so the packets
//     decode with a standard Decoder at any GOMAXPROCS;
//   - a quarter-resolution rung runs a nested encoder at ceil(W/2) x
//     ceil(H/2), a quarter of the pixel work (the VoLUT approach: the
//     receiver upsamples, and quarter-res depth goes through the
//     superres path).
//
// All rungs share the frame sequence and key-frame cadence, so a relay
// can switch a subscriber between rungs at any key-frame boundary without
// the decoder noticing.

// Rung describes one quality rung of a ladder.
type Rung struct {
	// ID is the wire rung id (0..3, transport.FlagRungMask).
	ID uint8
	// QPOffset is added to rung 0's QP; coarser quantization for lower
	// rungs.
	QPOffset int
	// Quarter encodes this rung at quarter resolution (ceil(W/2) x
	// ceil(H/2)); the receiver upsamples after decoding.
	Quarter bool
}

// DefaultLadder is the standard 3-rung ladder: full quality, same
// resolution at +8 QP (~2.5x coarser steps), and quarter resolution at
// +8 QP.
func DefaultLadder() []Rung {
	return []Rung{
		{ID: 0},
		{ID: 1, QPOffset: 8},
		{ID: 2, QPOffset: 8, Quarter: true},
	}
}

// transRef is the closed-loop reference state of one requantization rung.
type transRef struct {
	pics [2]*codedPicture
	prev *codedPicture
}

// LadderEncoder encodes one stream at K quality rungs per frame. Like
// Encoder it is stateful and not safe for concurrent use.
type LadderEncoder struct {
	cfg   Config
	rungs []Rung
	enc   *Encoder // rung 0: the one full encode

	// Requantization rungs: per-rung closed-loop reference pictures plus
	// shared transcode scratch.
	trefs map[int]*transRef // rung index → reference state
	scr   scratch
	def   deflater
	tjobs []transStripe

	// Quarter rungs: nested encoders plus the derived quarter frame
	// staging (used when the caller does not supply a quarter source).
	qencs  map[int]*Encoder
	qframe *Frame
}

// NewLadderEncoder creates a ladder encoder. rungs[0] must be the identity
// rung (ID 0, no offset, full resolution); nil rungs selects
// DefaultLadder().
func NewLadderEncoder(cfg Config, rungs []Rung) (*LadderEncoder, error) {
	if rungs == nil {
		rungs = DefaultLadder()
	}
	if len(rungs) == 0 || rungs[0].ID != 0 || rungs[0].QPOffset != 0 || rungs[0].Quarter {
		return nil, fmt.Errorf("vcodec: ladder rung 0 must be the identity rung")
	}
	if len(rungs) > 4 {
		return nil, fmt.Errorf("vcodec: at most 4 rungs (wire carries 2 rung bits), got %d", len(rungs))
	}
	enc, err := NewEncoder(cfg)
	if err != nil {
		return nil, err
	}
	l := &LadderEncoder{
		cfg:   enc.cfg, // defaulted
		rungs: append([]Rung(nil), rungs...),
		enc:   enc,
		trefs: make(map[int]*transRef),
		qencs: make(map[int]*Encoder),
	}
	for i, r := range rungs[1:] {
		idx := i + 1
		if r.Quarter {
			qcfg := l.cfg
			qcfg.Width = (l.cfg.Width + 1) / 2
			qcfg.Height = (l.cfg.Height + 1) / 2
			qcfg.FlateLevel = auxFlateLevel(l.cfg.FlateLevel)
			qe, err := NewEncoder(qcfg)
			if err != nil {
				return nil, err
			}
			l.qencs[idx] = qe
			continue
		}
		tr := &transRef{}
		tr.pics[0] = newCodedPicture(l.cfg)
		tr.pics[1] = newCodedPicture(l.cfg)
		l.trefs[idx] = tr
	}
	return l, nil
}

// Config returns the (defaulted) rung-0 configuration.
func (l *LadderEncoder) Config() Config { return l.cfg }

// QuarterConfig returns the configuration quarter rungs encode at (and a
// matching decoder needs). ok is false when the ladder has no quarter rung.
func (l *LadderEncoder) QuarterConfig() (Config, bool) {
	for _, qe := range l.qencs {
		return qe.cfg, true
	}
	return Config{}, false
}

// Encoder returns the rung-0 encoder (quality probes read LastRecon off
// it, exactly as with a single-rung pipeline).
func (l *LadderEncoder) Encoder() *Encoder { return l.enc }

// ForceKeyFrame forces the next frame to be a key frame on every rung.
// Safe to call concurrently with EncodeLadder (the PLI path).
func (l *LadderEncoder) ForceKeyFrame() { l.enc.ForceKeyFrame() }

// EncodeLadder rate-controls rung 0 to targetBytes and derives the other
// rungs. quarter optionally supplies the quarter-resolution source for
// quarter rungs (callers that stamp in-band markers must stamp them after
// downsampling); nil derives it from f by box filtering. The returned
// packets are indexed like the ladder's rungs and share Seq and Key.
func (l *LadderEncoder) EncodeLadder(f, quarter *Frame, targetBytes int) ([]*Packet, error) {
	pkt0, err := l.enc.Encode(f, targetBytes)
	if err != nil {
		return nil, err
	}
	return l.deriveRungs(f, quarter, pkt0)
}

// EncodeLadderQP encodes rung 0 at a fixed QP and derives the other rungs
// (the fixed-quality baseline and the benchmarks' deterministic path).
func (l *LadderEncoder) EncodeLadderQP(f, quarter *Frame, qp int) ([]*Packet, error) {
	pkt0, err := l.enc.EncodeQP(f, qp)
	if err != nil {
		return nil, err
	}
	return l.deriveRungs(f, quarter, pkt0)
}

// deriveRungs produces rungs 1..K-1 from the just-encoded rung-0 state.
func (l *LadderEncoder) deriveRungs(f, quarter *Frame, pkt0 *Packet) ([]*Packet, error) {
	out := make([]*Packet, len(l.rungs))
	out[0] = pkt0
	l.scr.reset()
	for idx := 1; idx < len(l.rungs); idx++ {
		r := l.rungs[idx]
		qp := clampQP(pkt0.QP+r.QPOffset, l.cfg.MinQP, l.cfg.MaxQP)
		var pkt *Packet
		var err error
		if r.Quarter {
			pkt, err = l.encodeQuarter(l.qencs[idx], f, quarter, pkt0, qp)
		} else {
			pkt, err = l.transcode(l.trefs[idx], pkt0, qp)
		}
		if err != nil {
			return nil, fmt.Errorf("vcodec: rung %d: %w", r.ID, err)
		}
		pkt.Rung = r.ID
		out[idx] = pkt
	}
	return out, nil
}

// encodeQuarter drives a quarter rung's nested encoder, keeping its key
// cadence and sequence locked to rung 0.
func (l *LadderEncoder) encodeQuarter(qe *Encoder, f, quarter *Frame, pkt0 *Packet, qp int) (*Packet, error) {
	if quarter == nil {
		if l.qframe == nil {
			l.qframe = NewFrame(qe.cfg.Width, qe.cfg.Height, qe.cfg.NumPlanes)
		}
		for p := range f.Planes {
			downsample2x(f.Planes[p], f.W, f.H, l.qframe.Planes[p], qe.cfg.Width, qe.cfg.Height)
		}
		quarter = l.qframe
	}
	if pkt0.Key {
		// Lockstep key cadence: rung 0's key (periodic or PLI-forced)
		// forces one here too, so every rung's key frames share a seq.
		qe.ForceKeyFrame()
	}
	pkt, err := qe.EncodeQP(quarter, qp)
	if err != nil {
		return nil, err
	}
	if pkt.Seq != pkt0.Seq || pkt.Key != pkt0.Key {
		return nil, fmt.Errorf("quarter rung out of lockstep: seq %d/%d key %v/%v",
			pkt.Seq, pkt0.Seq, pkt.Key, pkt0.Key)
	}
	return pkt, nil
}

// transStripe is one unit of parallel transcode work: requantize and
// reconstruct the blocks of one rung-0 encode stripe.
type transStripe struct {
	src         *encStripe // rung 0's coded stripe (symbols + geometry)
	key         bool
	step0       float64 // rung 0's quantizer step for this plane
	step1       float64 // this rung's step
	prev, recon []int32 // this rung's reference planes (coded dims)
	coeffs      *byteWriter
	err         error // per-stripe so parallel workers never share a slot
}

// transcode produces a same-resolution rung from rung 0's just-finished
// stripe state: modes and motion vectors are reused byte-identically,
// coefficients are requantized at this rung's (coarser) step, and the
// rung's own reference picture is reconstructed closed-loop, exactly as
// its decoder will.
func (l *LadderEncoder) transcode(tr *transRef, pkt0 *Packet, qp int) (*Packet, error) {
	e := l.enc
	key := pkt0.Key
	recon := tr.pics[0]
	if recon == tr.prev {
		recon = tr.pics[1]
	}

	// Build one transcode job per rung-0 encode stripe. Jobs mirror the
	// (plane, stripe) order of e.jobs, so assembling their streams in job
	// order reproduces the sequential symbol order at any worker count.
	l.tjobs = l.tjobs[:0]
	for i := range e.jobs {
		job := &e.jobs[i]
		p := planeIndexOf(e, job.pc)
		pqp := qp
		if p > 0 {
			pqp = clampQP(qp+l.cfg.ChromaQPOffset, l.cfg.MinQP, l.cfg.MaxQP)
		}
		var prevPlane []int32
		if !key {
			prevPlane = tr.prev.planes[p]
		}
		l.tjobs = append(l.tjobs, transStripe{
			src:    job,
			key:    key,
			step0:  job.pc.step,
			step1:  qpToStep(pqp, l.cfg.BitDepth),
			prev:   prevPlane,
			recon:  recon.planes[p],
			coeffs: l.scr.getWriter(),
		})
	}
	pipeline.ParFor(len(l.tjobs), func(i int) {
		l.tjobs[i].err = l.tjobs[i].run()
	})
	for i := range l.tjobs {
		if err := l.tjobs[i].err; err != nil {
			return nil, err
		}
	}

	// Assemble the rung's payload: rung 0's mode and MV streams verbatim,
	// this rung's coefficient streams, all in (plane, stripe) order.
	payload := l.scr.getWriter()
	var mLen, vLen, cLen uint64
	for i := range l.tjobs {
		mLen += uint64(len(l.tjobs[i].src.modes.buf))
		vLen += uint64(len(l.tjobs[i].src.mvs.buf))
		cLen += uint64(len(l.tjobs[i].coeffs.buf))
	}
	payload.writeUvarint(mLen)
	for i := range l.tjobs {
		payload.buf = append(payload.buf, l.tjobs[i].src.modes.buf...)
	}
	payload.writeUvarint(vLen)
	for i := range l.tjobs {
		payload.buf = append(payload.buf, l.tjobs[i].src.mvs.buf...)
	}
	payload.writeUvarint(cLen)
	for i := range l.tjobs {
		payload.buf = append(payload.buf, l.tjobs[i].coeffs.buf...)
	}

	hdr := l.scr.getWriter()
	hdr.writeByte('V')
	flags := byte(0)
	if key {
		flags |= 1
	}
	hdr.writeByte(flags)
	hdr.writeUvarint(uint64(pkt0.Seq))
	hdr.writeUvarint(uint64(qp))

	data, err := l.def.compress(hdr.buf, payload.buf, auxFlateLevel(l.cfg.FlateLevel))
	if err != nil {
		return nil, err
	}
	tr.prev = recon
	return &Packet{Data: data, Key: key, Seq: pkt0.Seq, QP: qp}, nil
}

// auxFlateLevel caps the entropy-coder effort of derived rungs. Rung 0
// carries the stream's quality contract; the auxiliary rungs exist to be
// cheap, and deflate effort is the bulk of their remaining cost once mode
// decisions and the DCT are reused (or quartered). Level 1 uses the
// stdlib's specialized fast matcher — several times cheaper than level
// 2+'s generic one for a few percent of size. DEFLATE is self-describing,
// so decoders never see the difference. ExplicitZero (stored blocks) is
// honoured as-is.
func auxFlateLevel(level int) int {
	if level == ExplicitZero || level < 1 {
		return level
	}
	return 1
}

// planeIndexOf maps an encode stripe's planeCode back to its plane index.
func planeIndexOf(e *Encoder, pc *planeCode) int {
	for p := range e.planes {
		if &e.planes[p] == pc {
			return p
		}
	}
	return 0
}

// run requantizes and reconstructs one stripe. The symbol walk mirrors
// parsePlane; the reconstruction mirrors decStripe.decode so the rung's
// reference tracks its decoder bit-exactly.
func (t *transStripe) run() error {
	pc := t.src.pc
	w, h := pc.w, pc.h
	bx := (w + blockSize - 1) / blockSize
	modes := byteReader{buf: t.src.modes.buf}
	mvs := byteReader{buf: t.src.mvs.buf}
	coeffs := byteReader{buf: t.src.coeffs.buf}
	ratio := t.step0 / t.step1

	var predBlk [blockSize * blockSize]int32
	var q [blockSize * blockSize]int64

	for byi := t.src.row0; byi < t.src.row1; byi++ {
		for bxi := 0; bxi < bx; bxi++ {
			x0, y0 := bxi*blockSize, byi*blockSize
			mode, err := modes.readByte()
			if err != nil {
				return err
			}
			var mvx, mvy int
			if mode == modeInterMV {
				dx, err := mvs.readVarint()
				if err != nil {
					return err
				}
				dy, err := mvs.readVarint()
				if err != nil {
					return err
				}
				mvx, mvy = int(dx), int(dy)
			}

			count64, err := coeffs.readUvarint()
			if err != nil {
				return err
			}
			count := int(count64)
			if count > blockSize*blockSize {
				return fmt.Errorf("vcodec: transcode coefficient count %d out of range", count)
			}
			// Requantize: c1 = round(c0 * step0 / step1). Trailing
			// requantized-to-zero coefficients are trimmed from the count.
			lastNZ := -1
			for k := 0; k < count; k++ {
				c0, err := coeffs.readVarint()
				if err != nil {
					return err
				}
				v := int64(math.Round(float64(c0) * ratio))
				q[k] = v
				if v != 0 {
					lastNZ = k
				}
			}
			t.coeffs.writeUvarint(uint64(lastNZ + 1))
			for k := 0; k <= lastNZ; k++ {
				t.coeffs.writeVarint(q[k])
			}

			// Closed-loop reconstruction from this rung's own reference.
			if lastNZ < 0 && mode == modeInterZero {
				// Zero residual, co-located prediction: the reconstruction
				// is a straight copy of the reference block (the dominant
				// case on static tiled content).
				copyBlockRows(t.recon, t.prev, w, h, x0, y0)
				continue
			}
			switch mode {
			case modeIntra:
				fillConst(&predBlk, pc.mid)
			case modeInterZero:
				gather(t.prev, w, h, x0, y0, &predBlk)
			case modeInterMV:
				gather(t.prev, w, h, x0+mvx, y0+mvy, &predBlk)
			default:
				return fmt.Errorf("vcodec: transcode unknown block mode %d", mode)
			}
			reconBlock(t.recon, w, h, x0, y0, &predBlk, q[:lastNZ+1], t.step1, pc.maxVal)
		}
	}
	return nil
}

// copyBlockRows copies the in-bounds rectangle of the block at (x0, y0)
// from src to dst — byte-identical to gather+reconBlock for a co-located
// zero-residual block (reference samples are already clamped in range).
func copyBlockRows(dst, src []int32, w, h, x0, y0 int) {
	x1 := x0 + blockSize
	if x1 > w {
		x1 = w
	}
	y1 := y0 + blockSize
	if y1 > h {
		y1 = h
	}
	for y := y0; y < y1; y++ {
		copy(dst[y*w+x0:y*w+x1], src[y*w+x0:y*w+x1])
	}
}
