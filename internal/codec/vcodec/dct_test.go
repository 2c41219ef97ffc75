package vcodec

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"livo/internal/frame"
)

// The reference loops below are the codec's kernels as they were before
// the straight-line rewrite, kept verbatim. The shipped kernels must agree
// with them exactly (== on float64, so only the sign of a zero may
// differ, which the rounding to integers discards).

// fdct2dRef computes the 2D orthonormal DCT of an 8x8 block in place.
func fdct2dRef(b *[blockSize * blockSize]float64) {
	var tmp [blockSize * blockSize]float64
	// Rows: tmp = b * D^T
	for r := 0; r < blockSize; r++ {
		for k := 0; k < blockSize; k++ {
			var s float64
			for n := 0; n < blockSize; n++ {
				s += b[r*blockSize+n] * dctMat[k][n]
			}
			tmp[r*blockSize+k] = s
		}
	}
	// Columns: b = D * tmp
	for c := 0; c < blockSize; c++ {
		for k := 0; k < blockSize; k++ {
			var s float64
			for n := 0; n < blockSize; n++ {
				s += tmp[n*blockSize+c] * dctMat[k][n]
			}
			b[k*blockSize+c] = s
		}
	}
}

// idct2dRef computes the inverse 2D DCT of an 8x8 block in place.
func idct2dRef(b *[blockSize * blockSize]float64) {
	var tmp [blockSize * blockSize]float64
	// Columns: tmp = D^T * b
	for c := 0; c < blockSize; c++ {
		for n := 0; n < blockSize; n++ {
			var s float64
			for k := 0; k < blockSize; k++ {
				s += dctMat[k][n] * b[k*blockSize+c]
			}
			tmp[n*blockSize+c] = s
		}
	}
	// Rows: b = tmp * D
	for r := 0; r < blockSize; r++ {
		for n := 0; n < blockSize; n++ {
			var s float64
			for k := 0; k < blockSize; k++ {
				s += tmp[r*blockSize+k] * dctMat[k][n]
			}
			b[r*blockSize+n] = s
		}
	}
}

// gatherRef is gather's edge-clamped loop, used for every block.
func gatherRef(plane []int32, w, h, x0, y0 int, dst *[blockSize * blockSize]int32) {
	for y := 0; y < blockSize; y++ {
		sy := min(max(y0+y, 0), h-1)
		for x := 0; x < blockSize; x++ {
			dst[y*blockSize+x] = plane[sy*w+min(max(x0+x, 0), w-1)]
		}
	}
}

// reconBlockRef is the encoder's reconstruction before the rewrite: the
// dense inverse transform of the dequantized block, then scatterRef.
func reconBlockRef(plane []int32, w, h, x0, y0 int, pred *[blockSize * blockSize]int32, coeffs []int64, step float64, maxVal int32) {
	var fblk [blockSize * blockSize]float64
	for k, c := range coeffs {
		fblk[zigzag[k]] = float64(c) * step
	}
	idct2dRef(&fblk)
	scatterRef(plane, w, h, x0, y0, pred, &fblk, maxVal)
}

// scatterRef is scatter's edge-clipped loop: pred + round(resid), clamped,
// into the in-bounds part of the block.
func scatterRef(plane []int32, w, h, x0, y0 int, pred *[blockSize * blockSize]int32, resid *[blockSize * blockSize]float64, maxVal int32) {
	for y := 0; y < blockSize && y0+y < h; y++ {
		for x := 0; x < blockSize && x0+x < w; x++ {
			v := pred[y*blockSize+x] + int32(math.Round(resid[y*blockSize+x]))
			plane[(y0+y)*w+x0+x] = clampI32(v, 0, maxVal)
		}
	}
}

// residualBlock fills b with a residual of the given magnitude (255 for
// 8-bit planes, 65535 for 16-bit ones); sparse leaves most samples zero,
// as in nearly-predicted blocks.
func residualBlock(rng *rand.Rand, b *[blockSize * blockSize]float64, mag int, sparse bool) {
	for i := range b {
		b[i] = 0
		if !sparse || rng.Intn(8) == 0 {
			b[i] = float64(rng.Intn(2*mag+1) - mag)
		}
	}
}

// levelBlock returns quantized levels in zigzag order whose nonzero
// entries all lie at frequency rows ≤ kr and columns ≤ kc, with a random
// density, and trailing zeros trimmed as the encoder trims them.
func levelBlock(rng *rand.Rand, kr, kc, mag int) []int64 {
	q := make([]int64, blockSize*blockSize)
	last := -1
	density := 1 + rng.Intn(4)
	for k, zz := range zigzag {
		if zz/blockSize > kr || zz%blockSize > kc || rng.Intn(density) != 0 {
			continue
		}
		if q[k] = int64(rng.Intn(2*mag+1) - mag); q[k] != 0 {
			last = k
		}
	}
	return q[:last+1]
}

// checkForward compares fdct2d with its reference on one block.
func checkForward(t testing.TB, b *[blockSize * blockSize]float64) {
	got, want := *b, *b
	fdct2d(&got)
	fdct2dRef(&want)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("fdct2d[%d] = %v, reference %v (input %v)", i, got[i], want[i], *b)
		}
	}
}

// inversePlaneW x inversePlaneH is the plane checkInverse reconstructs
// into: one interior block column and row, the rest edges.
const inversePlaneW, inversePlaneH = 21, 13

// checkInverse compares idct2dBounded with the dense reference on one
// dequantized block, and reconBlock with the reference reconstruction
// (dense transform, scatterRef) on an edge or interior block of two
// planes that hold the same samples.
func checkInverse(t testing.TB, q []int64, step float64, bitDepth int, pred *[blockSize * blockSize]int32, x0, y0 int, a, b []int32) {
	var got, want [blockSize * blockSize]float64
	for k, c := range q {
		got[zigzag[k]] = float64(c) * step
	}
	want = got
	_, kc := coeffBounds(q)
	idct2dBounded(&got, kc)
	idct2dRef(&want)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("idct2dBounded[%d] = %v, reference %v (levels %v, step %v)", i, got[i], want[i], q, step)
		}
	}
	const w, h = inversePlaneW, inversePlaneH
	maxVal := int32(1<<bitDepth - 1)
	reconBlock(a, w, h, x0, y0, pred, q, step, maxVal)
	scatterRef(b, w, h, x0, y0, pred, &want, maxVal)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("reconBlock at (%d,%d) sample %d = %d, reference %d (levels %v, step %v)", x0, y0, i, a[i], b[i], q, step)
		}
	}
}

// TestDCTKernelsMatchReference runs random blocks through each transform
// kernel and the shared reconstruction — 100k forward, 102,400 inverse —
// and compares them with the reference loops: 8-bit and 16-bit residual
// magnitudes, dense and sparse blocks, every (kr, kc) sparsity of the
// coefficients, and every quantizer step from QP 0 to 51.
func TestDCTKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	a, b := make([]int32, inversePlaneW*inversePlaneH), make([]int32, inversePlaneW*inversePlaneH)
	n := 0
	for _, depth := range []int{8, 16} {
		mag := 1<<depth - 1
		for i := 0; i < 50000; i++ {
			var b [blockSize * blockSize]float64
			residualBlock(rng, &b, mag, i%2 == 1)
			checkForward(t, &b)
			n++
		}
		for kr := 0; kr < blockSize; kr++ {
			for kc := 0; kc < blockSize; kc++ {
				for i := 0; i < 800; i++ {
					step := qpToStep(rng.Intn(52), depth)
					// Levels large enough to overshoot the sample range at
					// fine steps, so the clamps are exercised too.
					q := levelBlock(rng, kr, kc, 1+rng.Intn(64))
					var pred [blockSize * blockSize]int32
					for j := range pred {
						pred[j] = rng.Int31n(int32(mag) + 1)
					}
					checkInverse(t, q, step, depth, &pred, blockSize*rng.Intn(3), blockSize*rng.Intn(2), a, b)
					n++
				}
			}
		}
	}
	if n < 200000 {
		t.Fatalf("only %d blocks checked", n)
	}
}

// TestBlockCopiesMatchReference checks gather's interior row copies and
// edge clamps against the clamped loop at every offset that motion search
// and a decoded motion vector can reach, including blocks hanging off
// every side.
func TestBlockCopiesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const w, h = 21, 13
	plane := make([]int32, w*h)
	for i := range plane {
		plane[i] = rng.Int31()
	}
	for y0 := -10; y0 < h+2; y0++ {
		for x0 := -10; x0 < w+2; x0++ {
			var got, want [blockSize * blockSize]int32
			gather(plane, w, h, x0, y0, &got)
			gatherRef(plane, w, h, x0, y0, &want)
			if got != want {
				t.Fatalf("gather at (%d,%d) differs from the clamped loop", x0, y0)
			}
		}
	}
}

// TestDCDeltaMatchesTransform checks the DC-only shortcut against the
// dense reference transform plus per-pixel rounding at every QP and both
// bit depths.
func TestDCDeltaMatchesTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, depth := range []int{8, 16} {
		for qp := 0; qp <= 51; qp++ {
			step := qpToStep(qp, depth)
			for i := 0; i < 200; i++ {
				dc := float64(rng.Intn(4097)-2048) * step
				var b [blockSize * blockSize]float64
				b[0] = dc
				idct2dRef(&b)
				want := int32(math.Round(b[0]))
				for j := range b {
					if int32(math.Round(b[j])) != want {
						t.Fatalf("reference DC block not constant at %d", j)
					}
				}
				if got := dcDelta(dc); got != want {
					t.Fatalf("dcDelta(%v) = %d, transform %d", dc, got, want)
				}
			}
		}
	}
}

// fromColorRef and toColorRef are the colour conversions' loops before
// they were re-sliced.
func fromColorRef(im *frame.ColorImage, f *Frame) {
	for i := 0; i < im.W*im.H; i++ {
		r, g, b := int32(im.Pix[3*i]), int32(im.Pix[3*i+1]), int32(im.Pix[3*i+2])
		f.Planes[0][i] = clampI32((77*r+150*g+29*b+128)>>8, 0, 255)
		f.Planes[1][i] = clampI32((-43*r-85*g+128*b+128)>>8+128, 0, 255)
		f.Planes[2][i] = clampI32((128*r-107*g-21*b+128)>>8+128, 0, 255)
	}
}

func toColorRef(f *Frame, im *frame.ColorImage) {
	for i := 0; i < f.W*f.H; i++ {
		y, cb, cr := f.Planes[0][i], f.Planes[1][i]-128, f.Planes[2][i]-128
		im.Pix[3*i] = uint8(clampI32(y+(359*cr+128)>>8, 0, 255))
		im.Pix[3*i+1] = uint8(clampI32(y-(88*cb+183*cr+128)>>8, 0, 255))
		im.Pix[3*i+2] = uint8(clampI32(y+(454*cb+128)>>8, 0, 255))
	}
}

// TestColorConversionsMatchReference compares the re-sliced colour
// conversions with their loops on random images and on random (including
// out-of-range) YCbCr planes.
func TestColorConversionsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const w, h = 37, 23
	im := frame.NewColorImage(w, h)
	rng.Read(im.Pix)
	got, want := NewFrame(w, h, 3), NewFrame(w, h, 3)
	FromColorInto(im, got)
	fromColorRef(im, want)
	for p := range got.Planes {
		for i := range got.Planes[p] {
			if got.Planes[p][i] != want.Planes[p][i] {
				t.Fatalf("FromColorInto plane %d sample %d = %d, reference %d", p, i, got.Planes[p][i], want.Planes[p][i])
			}
		}
		for i := range got.Planes[p] {
			got.Planes[p][i] = rng.Int31n(400) - 70
		}
	}
	a, b := frame.NewColorImage(w, h), frame.NewColorImage(w, h)
	got.ToColorInto(a)
	toColorRef(got, b)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatalf("ToColorInto byte %d = %d, reference %d", i, a.Pix[i], b.Pix[i])
		}
	}
}

// FuzzDCT decodes its input into a residual block, a level block, a QP,
// a bit depth and a block position, and compares every kernel with its
// reference: fdct2d on the residual, idct2dBounded and reconBlock on the
// levels.
func FuzzDCT(f *testing.F) {
	zero := make([]byte, 4+2*blockSize*blockSize)
	ramp := make([]byte, len(zero))
	for i := range ramp {
		ramp[i] = byte(i * 37)
	}
	coarse16 := append([]byte{51, 1}, ramp[2:]...) // QP 51, 16-bit
	f.Add(zero)
	f.Add(ramp)
	f.Add(coarse16)
	f.Add([]byte{4, 0, 3, 2, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		qp, depth := int(data[0])%52, 8+8*int(data[1]&1)
		x0, y0 := blockSize*int(data[2]%3), blockSize*int(data[3]%2)
		var vals [blockSize * blockSize]int16
		rest := data[4:]
		for i := range vals {
			if len(rest) < 2 {
				break
			}
			vals[i] = int16(binary.LittleEndian.Uint16(rest))
			rest = rest[2:]
		}
		var b [blockSize * blockSize]float64
		mag := int32(1<<depth - 1)
		for i, v := range vals {
			b[i] = float64(clampI32(int32(v), -mag, mag))
		}
		checkForward(t, &b)
		// Levels: the same values, scaled down, trailing zeros trimmed.
		q := make([]int64, 0, len(vals))
		last := -1
		for k, v := range vals {
			q = append(q, int64(v/256))
			if q[k] != 0 {
				last = k
			}
		}
		var pred [blockSize * blockSize]int32
		for i := range pred {
			pred[i] = (int32(vals[(i*7)%len(vals)]) & mag)
		}
		pa, pb := make([]int32, inversePlaneW*inversePlaneH), make([]int32, inversePlaneW*inversePlaneH)
		checkInverse(t, q[:last+1], qpToStep(qp, depth), depth, &pred, x0, y0, pa, pb)
	})
}

// dctSink keeps the benchmarked transforms' results live.
var dctSink float64

// BenchmarkDCT times the transform kernels on the block shapes the codec
// sees, each beside the reference loop it replaced: forward on a 16-bit
// residual, and reconstruction (reconBlock: inverse transform plus
// scatter) of a dense, a low-frequency (kr, kc ≤ 2) and a DC-only block.
func BenchmarkDCT(b *testing.B) {
	rng := rand.New(rand.NewSource(48))
	var res [blockSize * blockSize]float64
	residualBlock(rng, &res, 65535, false)
	b.Run("forward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			blk := res
			fdct2d(&blk)
			dctSink = blk[1]
		}
	})
	b.Run("forward-ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			blk := res
			fdct2dRef(&blk)
			dctSink = blk[1]
		}
	})
	const w, h = 64, 64
	plane := make([]int32, w*h)
	var pred [blockSize * blockSize]int32
	fillConst(&pred, 128)
	step := qpToStep(24, 8)
	for _, c := range []struct {
		name   string
		kr, kc int
	}{{"dense", 7, 7}, {"low", 2, 2}, {"dc", 0, 0}} {
		// Every coefficient inside the bounds is nonzero.
		q := make([]int64, blockSize*blockSize)
		last := 0
		for k, zz := range zigzag {
			if zz/blockSize <= c.kr && zz%blockSize <= c.kc {
				q[k], last = int64(1+k%5), k
			}
		}
		q = q[:last+1]
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				reconBlock(plane, w, h, 8, 8, &pred, q, step, 255)
			}
		})
		b.Run(c.name+"-ref", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				reconBlockRef(plane, w, h, 8, 8, &pred, q, step, 255)
			}
		})
	}
}

// TestDCTBasisIsCosine checks the written-out basis against the cosine it
// stands for: bit for bit on amd64, where the table was taken from
// math.Cos, and within an ulp on ports whose math.Cos may round
// differently.
func TestDCTBasisIsCosine(t *testing.T) {
	for k := range dctMat {
		c := math.Sqrt(2.0 / blockSize)
		if k == 0 {
			c = math.Sqrt(1.0 / blockSize)
		}
		for n, got := range dctMat[k] {
			want := c * math.Cos(float64(2*n+1)*float64(k)*math.Pi/(2*blockSize))
			if got == want {
				continue
			}
			if runtime.GOARCH == "amd64" || math.Abs(got-want) > math.Abs(want)*0x1p-52 {
				t.Errorf("dctMat[%d][%d] = %x, c(k)·cos = %x", k, n, got, want)
			}
		}
	}
}

// TestQPToStepMatchesMath checks the explicitly rounded exp2 against
// math.Exp2 over every QP the wire can carry and beyond, at both bit
// depths. amd64 runs math.Exp2's portable code unfused, so there the two
// must agree bit for bit; elsewhere math.Exp2 may differ by an ulp, which
// is the reason exp2 exists.
func TestQPToStepMatchesMath(t *testing.T) {
	for _, depth := range []int{8, 16} {
		for qp := -64; qp <= 320; qp++ {
			got := qpToStep(qp, depth)
			want := math.Exp2(float64(qp-4)/6.0) * math.Exp2(float64(depth-8))
			if got == want {
				continue
			}
			if runtime.GOARCH == "amd64" || math.Abs(got-want) > want*0x1p-51 {
				t.Errorf("qpToStep(%d, %d) = %x, math.Exp2 gives %x", qp, depth, got, want)
			}
		}
	}
}
