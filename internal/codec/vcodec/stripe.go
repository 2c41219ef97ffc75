package vcodec

import (
	"fmt"
	"math"

	"livo/internal/pipeline"
)

// Stripe-parallel plane coding.
//
// A plane's blocks have no coding dependencies on each other: prediction
// reads only the previous *frame's* reconstruction (read-only during the
// current frame) and each block writes a disjoint region of the current
// reconstruction. Block rows are therefore sharded into horizontal stripes
// processed by a GOMAXPROCS-aware worker pool (pipeline.ParFor). Each
// stripe emits its symbols into private reused writers; the frame
// assembler concatenates stripe streams in (plane, stripe) order, which is
// exactly the order the sequential coder emitted them — so the bitstream
// is byte-identical regardless of worker count, and stripe boundaries are
// fixed (stripeBlockRows) rather than derived from GOMAXPROCS so buffer
// shapes are reproducible too.

// stripeBlockRows is the stripe height in block rows (64 pixel rows).
// Small enough to load-balance 4K planes across many cores, large enough
// that per-stripe writer overhead is negligible.
const stripeBlockRows = 8

// planeCode holds the per-plane parameters shared by that plane's encode
// stripes. prev is nil on key frames.
type planeCode struct {
	src, prev, recon []int32
	w, h             int
	maxVal, mid      int32
	step             float64
	radius           int
}

// encStripe is one unit of parallel encode work: block rows [row0, row1)
// of one plane, with private symbol writers.
type encStripe struct {
	pc                 *planeCode
	row0, row1         int
	modes, mvs, coeffs *byteWriter
}

// appendEncStripes slices plane pc into stripes, each with private symbol
// writers drawn from the encoder's scratch freelist.
func appendEncStripes(jobs []encStripe, pc *planeCode, scr *scratch) []encStripe {
	by := (pc.h + blockSize - 1) / blockSize
	for r := 0; r < by; r += stripeBlockRows {
		r1 := r + stripeBlockRows
		if r1 > by {
			r1 = by
		}
		jobs = append(jobs, encStripe{
			pc: pc, row0: r, row1: r1,
			modes: scr.getWriter(), mvs: scr.getWriter(), coeffs: scr.getWriter(),
		})
	}
	return jobs
}

// codeStripe encodes block rows [row0, row1) of one plane: predict → DCT →
// quantize → entropy symbols → reconstruct, exactly as the sequential
// coder did, block by block in raster order.
func (s *encStripe) code() {
	pc := s.pc
	w, h := pc.w, pc.h
	bx := (w + blockSize - 1) / blockSize
	modes, mvs, coeffs := s.modes, s.mvs, s.coeffs

	var srcBlk, predBlk [blockSize * blockSize]int32
	var fblk [blockSize * blockSize]float64

	for byi := s.row0; byi < s.row1; byi++ {
		for bxi := 0; bxi < bx; bxi++ {
			x0, y0 := bxi*blockSize, byi*blockSize
			gather(pc.src, w, h, x0, y0, &srcBlk)

			mode := modeIntra
			var mvx, mvy int
			if pc.prev != nil {
				gather(pc.prev, w, h, x0, y0, &predBlk)
				zeroSAD := sad(&srcBlk, &predBlk)
				intraSAD := sadConst(&srcBlk, pc.mid)
				// Prefer inter on ties: it usually costs fewer bits.
				if zeroSAD <= intraSAD {
					mode = modeInterZero
				}
				bestSAD := zeroSAD
				if pc.radius > 0 && zeroSAD > 0 {
					var cand [blockSize * blockSize]int32
					for dy := -pc.radius; dy <= pc.radius; dy++ {
						for dx := -pc.radius; dx <= pc.radius; dx++ {
							if dx == 0 && dy == 0 {
								continue
							}
							gather(pc.prev, w, h, x0+dx, y0+dy, &cand)
							sadV := sad(&srcBlk, &cand)
							// Small penalty so MVs are only used when they
							// actually help (they cost extra bits).
							if sadV+int64(blockSize*blockSize)/4 < bestSAD && sadV < intraSAD {
								bestSAD = sadV
								mode = modeInterMV
								mvx, mvy = dx, dy
								predBlk = cand
							}
						}
					}
					if mode == modeInterZero {
						gather(pc.prev, w, h, x0, y0, &predBlk)
					}
				}
				if mode == modeIntra {
					fillConst(&predBlk, pc.mid)
				}
			} else {
				fillConst(&predBlk, pc.mid)
			}

			modes.writeByte(byte(mode))
			if mode == modeInterMV {
				mvs.writeVarint(int64(mvx))
				mvs.writeVarint(int64(mvy))
			}

			// Residual. A perfectly predicted block (the common case for
			// static tiled content) short-circuits the transform: a zero
			// residual quantizes to zero coefficients at any step, so the
			// emitted symbols and the reconstruction are identical to the
			// full path.
			allZero := true
			for i := range srcBlk {
				d := srcBlk[i] - predBlk[i]
				if d != 0 {
					allZero = false
				}
				fblk[i] = float64(d)
			}
			var q [blockSize * blockSize]int64
			lastNZ := -1
			if !allZero {
				fdct2d(&fblk)
				for i, zi := range zigzag {
					v := int64(math.Round(fblk[zi] / pc.step))
					q[i] = v
					if v != 0 {
						lastNZ = i
					}
				}
			}
			coeffs.writeUvarint(uint64(lastNZ + 1))
			for i := 0; i <= lastNZ; i++ {
				coeffs.writeVarint(q[i])
			}
			// Reconstruct exactly as the decoder will.
			reconBlock(pc.recon, w, h, x0, y0, &predBlk, q[:lastNZ+1], pc.step, pc.maxVal)
		}
	}
}

// runEncStripes codes all stripes on the worker pool.
func runEncStripes(jobs []encStripe) {
	pipeline.ParFor(len(jobs), func(i int) { jobs[i].code() })
}

// --- Decode side -----------------------------------------------------------
//
// The three symbol streams are varint-coded, so stripe N's symbols cannot
// be located without reading stripe N-1's — the parse is inherently
// serial. It is also cheap (byte scanning) next to the reconstruction
// (IDCT per block), so decode runs in two phases: a serial parse into
// per-block tables, then stripe-parallel predict + dequantize + IDCT +
// reconstruct over those tables.

// parsedPlane is the decoder's per-plane symbol table, reused across
// frames. Motion vectors and coefficients are stored per block; coeffs is
// a shared slab indexed by offs.
type parsedPlane struct {
	modes  []byte
	mvx    []int32
	mvy    []int32
	counts []int32
	offs   []int32
	coeffs []int64
}

func (pp *parsedPlane) reset(nblocks int) {
	grow := func(n int) {
		if cap(pp.modes) < n {
			pp.modes = make([]byte, n)
			pp.mvx = make([]int32, n)
			pp.mvy = make([]int32, n)
			pp.counts = make([]int32, n)
			pp.offs = make([]int32, n)
		}
	}
	grow(nblocks)
	pp.modes = pp.modes[:nblocks]
	pp.mvx = pp.mvx[:nblocks]
	pp.mvy = pp.mvy[:nblocks]
	pp.counts = pp.counts[:nblocks]
	pp.offs = pp.offs[:nblocks]
	pp.coeffs = pp.coeffs[:0]
}

// clampMV bounds a decoded motion component to int32 range, preserving
// sign. Any in-range plane offset is unaffected; absurd values still clamp
// to the same edge sample during gather that they would have as an int.
func clampMV(v int64) int32 {
	const lim = 1 << 30
	if v > lim {
		return lim
	}
	if v < -lim {
		return -lim
	}
	return int32(v)
}

// parsePlane reads one plane's symbols into pp. prevNil reports whether
// this is a key frame (inter modes are then invalid).
func parsePlane(pp *parsedPlane, nblocks int, prevNil bool, modes, mvs, coeffs *byteReader) error {
	for i := 0; i < nblocks; i++ {
		mode, err := modes.readByte()
		if err != nil {
			return err
		}
		switch mode {
		case modeIntra:
		case modeInterZero:
			if prevNil {
				return fmt.Errorf("inter block in key frame")
			}
		case modeInterMV:
			if prevNil {
				return fmt.Errorf("inter block in key frame")
			}
			dx64, err := mvs.readVarint()
			if err != nil {
				return err
			}
			dy64, err := mvs.readVarint()
			if err != nil {
				return err
			}
			pp.mvx[i] = clampMV(dx64)
			pp.mvy[i] = clampMV(dy64)
		default:
			return fmt.Errorf("unknown block mode %d", mode)
		}
		pp.modes[i] = mode

		count, err := coeffs.readUvarint()
		if err != nil {
			return err
		}
		if count > blockSize*blockSize {
			return fmt.Errorf("coefficient count %d out of range", count)
		}
		pp.counts[i] = int32(count)
		pp.offs[i] = int32(len(pp.coeffs))
		for k := 0; k < int(count); k++ {
			v, err := coeffs.readVarint()
			if err != nil {
				return err
			}
			pp.coeffs = append(pp.coeffs, v)
		}
	}
	return nil
}

// planeDecode holds the per-plane parameters shared by that plane's
// decode stripes.
type planeDecode struct {
	pp          *parsedPlane
	prev, recon []int32
	w, h        int
	maxVal, mid int32
	step        float64
}

// decStripe is one unit of parallel decode work.
type decStripe struct {
	pd         *planeDecode
	row0, row1 int
}

// appendDecStripes slices plane pd into stripes.
func appendDecStripes(jobs []decStripe, pd *planeDecode) []decStripe {
	by := (pd.h + blockSize - 1) / blockSize
	for r := 0; r < by; r += stripeBlockRows {
		r1 := r + stripeBlockRows
		if r1 > by {
			r1 = by
		}
		jobs = append(jobs, decStripe{pd: pd, row0: r, row1: r1})
	}
	return jobs
}

// decode reconstructs block rows [row0, row1) of one plane from its
// parsed symbol table.
func (s *decStripe) decode() {
	pd := s.pd
	w, h := pd.w, pd.h
	bx := (w + blockSize - 1) / blockSize
	pp := pd.pp

	var predBlk [blockSize * blockSize]int32

	for byi := s.row0; byi < s.row1; byi++ {
		for bxi := 0; bxi < bx; bxi++ {
			i := byi*bx + bxi
			x0, y0 := bxi*blockSize, byi*blockSize
			switch pp.modes[i] {
			case modeIntra:
				fillConst(&predBlk, pd.mid)
			case modeInterZero:
				gather(pd.prev, w, h, x0, y0, &predBlk)
			case modeInterMV:
				gather(pd.prev, w, h, x0+int(pp.mvx[i]), y0+int(pp.mvy[i]), &predBlk)
			}

			off := int(pp.offs[i])
			reconBlock(pd.recon, w, h, x0, y0, &predBlk, pp.coeffs[off:off+int(pp.counts[i])], pd.step, pd.maxVal)
		}
	}
}
