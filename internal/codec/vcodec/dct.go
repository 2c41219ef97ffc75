package vcodec

import "math"

// blockSize is the transform block size (8x8, the classic DCT block also
// referenced by the paper's macroblock discussion in §3.2).
const blockSize = 8

// dctMat[k][n] = c(k) * cos((2n+1)kπ/16) — the orthonormal DCT-II basis —
// as math.Cos computes it on amd64 (TestDCTBasisIsCosine), written out
// bit for bit: math.Cos is not the same bits on every GOARCH (the arm64,
// ppc64 and s390x compilers may fuse its polynomial into FMAs), and an
// encoder and a decoder whose bases differ in one bit drift apart. dctT is
// the transpose, so the inverse transform reads basis rows too.
var dctMat = [blockSize][blockSize]float64{
	{0x1.6a09e667f3bcdp-02, 0x1.6a09e667f3bcdp-02, 0x1.6a09e667f3bcdp-02, 0x1.6a09e667f3bcdp-02,
		0x1.6a09e667f3bcdp-02, 0x1.6a09e667f3bcdp-02, 0x1.6a09e667f3bcdp-02, 0x1.6a09e667f3bcdp-02},
	{0x1.f6297cff75cbp-02, 0x1.a9b66290ea1a4p-02, 0x1.1c73b39ae68c9p-02, 0x1.8f8b83c69a60cp-04,
		-0x1.8f8b83c69a608p-04, -0x1.1c73b39ae68c6p-02, -0x1.a9b66290ea1a4p-02, -0x1.f6297cff75cafp-02},
	{0x1.d906bcf328d46p-02, 0x1.87de2a6aea964p-03, -0x1.87de2a6aea962p-03, -0x1.d906bcf328d46p-02,
		-0x1.d906bcf328d47p-02, -0x1.87de2a6aea96dp-03, 0x1.87de2a6aea967p-03, 0x1.d906bcf328d44p-02},
	{0x1.a9b66290ea1a4p-02, -0x1.8f8b83c69a608p-04, -0x1.f6297cff75cafp-02, -0x1.1c73b39ae68c8p-02,
		0x1.1c73b39ae68c5p-02, 0x1.f6297cff75cbp-02, 0x1.8f8b83c69a61dp-04, -0x1.a9b66290ea1a3p-02},
	{0x1.6a09e667f3bcdp-02, -0x1.6a09e667f3bccp-02, -0x1.6a09e667f3bcep-02, 0x1.6a09e667f3bccp-02,
		0x1.6a09e667f3bcep-02, -0x1.6a09e667f3bc5p-02, -0x1.6a09e667f3bcap-02, 0x1.6a09e667f3bc5p-02},
	{0x1.1c73b39ae68c9p-02, -0x1.f6297cff75cafp-02, 0x1.8f8b83c69a60bp-04, 0x1.a9b66290ea1a5p-02,
		-0x1.a9b66290ea1a3p-02, -0x1.8f8b83c69a602p-04, 0x1.f6297cff75cb2p-02, -0x1.1c73b39ae68c2p-02},
	{0x1.87de2a6aea964p-03, -0x1.d906bcf328d47p-02, 0x1.d906bcf328d44p-02, -0x1.87de2a6aea964p-03,
		-0x1.87de2a6aea971p-03, 0x1.d906bcf328d46p-02, -0x1.d906bcf328d42p-02, 0x1.87de2a6aea95fp-03},
	{0x1.8f8b83c69a60cp-04, -0x1.1c73b39ae68c8p-02, 0x1.a9b66290ea1a5p-02, -0x1.f6297cff75cb2p-02,
		0x1.f6297cff75cbp-02, -0x1.a9b66290ea1a1p-02, 0x1.1c73b39ae68c2p-02, -0x1.8f8b83c69a615p-04},
}

var dctT [blockSize][blockSize]float64

func init() {
	for k := range dctMat {
		for n := range dctMat[k] {
			dctT[n][k] = dctMat[k][n]
		}
	}
}

func sqrt(x float64) float64 { return math.Sqrt(x) }

// The transform kernels share one rule, so that every encoder, decoder
// and transcoder computes the same bits on every GOARCH:
//
//   - each output is one straight-line sum of eight products (rowPass,
//     colPass), the terms added left to right in the order of the
//     reference loops kept in dct_test.go;
//   - each product is wrapped in an explicit float64 conversion, which the
//     Go spec defines as a rounding step, so no architecture may fuse it
//     with the add into an FMA (arm64, ppc64 and s390x would otherwise);
//   - a kernel may add extra terms that are exactly ±0.0; they change at
//     most the sign of a zero sum, which the rounding to integer pixels or
//     coefficients discards.

// rowPass sets dst[r][k] = Σ src[r][n]·m[k][n], n = 0..7, for every row
// r and output k: one straight-line sum per output, added left to right,
// every product rounded.
func rowPass(dst, src *[blockSize * blockSize]float64, m *[blockSize][blockSize]float64) {
	for r := 0; r < blockSize; r++ {
		x := (*[blockSize]float64)(src[r*blockSize:])
		o := (*[blockSize]float64)(dst[r*blockSize:])
		x0, x1, x2, x3, x4, x5, x6, x7 := x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]
		for k := range o {
			mk := &m[k]
			o[k] = float64(x0*mk[0]) + float64(x1*mk[1]) + float64(x2*mk[2]) + float64(x3*mk[3]) +
				float64(x4*mk[4]) + float64(x5*mk[5]) + float64(x6*mk[6]) + float64(x7*mk[7])
		}
	}
}

// colPass sets dst[k][c] = Σ src[n][c]·m[k][n], n = 0..7, for every
// column c < cols and output k, under rowPass's rule. Columns from cols
// on are left as they are.
func colPass(dst, src *[blockSize * blockSize]float64, m *[blockSize][blockSize]float64, cols int) {
	for c := range blockSize {
		if c >= cols {
			break
		}
		x0, x1, x2, x3 := src[c], src[blockSize+c], src[2*blockSize+c], src[3*blockSize+c]
		x4, x5, x6, x7 := src[4*blockSize+c], src[5*blockSize+c], src[6*blockSize+c], src[7*blockSize+c]
		for k := range blockSize {
			mk := &m[k]
			dst[k*blockSize+c] = float64(x0*mk[0]) + float64(x1*mk[1]) + float64(x2*mk[2]) + float64(x3*mk[3]) +
				float64(x4*mk[4]) + float64(x5*mk[5]) + float64(x6*mk[6]) + float64(x7*mk[7])
		}
	}
}

// fdct2d computes the 2D orthonormal DCT of an 8x8 block in place.
func fdct2d(b *[blockSize * blockSize]float64) {
	var tmp [blockSize * blockSize]float64
	rowPass(&tmp, b, &dctMat)            // rows: tmp = b * D^T
	colPass(b, &tmp, &dctMat, blockSize) // columns: b = D * tmp
}

// idct2dBounded computes the inverse 2D DCT of a block whose nonzero
// coefficients all lie in columns ≤ kc. The column pass skips the columns
// beyond kc, whose output is exactly zero; every other output is the full
// eight-term sum, in which the terms of zero coefficients are ±0.0. It is
// the one inverse transform: encoder, decoder and transcoder all
// reconstruct through reconBlock, so none of them can drift from another.
func idct2dBounded(b *[blockSize * blockSize]float64, kc int) {
	var tmp [blockSize * blockSize]float64
	colPass(&tmp, b, &dctT, kc+1) // columns: tmp = D^T * b
	rowPass(b, &tmp, &dctT)       // rows: b = tmp * D
}

// dcDelta is the constant pixel-domain residual of a DC-only block,
// rounded exactly as scatter rounds each pixel. The multiplication order
// mirrors idct2dBounded's two passes (dm*dc then *dm), so the delta is
// bit-identical to running the transform and rounding per pixel.
func dcDelta(dc float64) int32 {
	dm := dctMat[0][0]
	return int32(math.Round(float64(dm * float64(dm*dc))))
}

// coeffBounds returns the largest frequency row and column that hold a
// nonzero AC coefficient of a block whose coefficients are given in
// zigzag order; (0, 0) means the block is DC-only.
func coeffBounds(coeffs []int64) (kr, kc int) {
	for k := 1; k < len(coeffs); k++ {
		if coeffs[k] == 0 {
			continue
		}
		zz := zigzag[k]
		kr = max(kr, zz/blockSize)
		kc = max(kc, zz%blockSize)
	}
	return kr, kc
}

// zigzag is the coefficient scan order: low frequencies first so trailing
// zeros cluster for the entropy coder.
var zigzag = buildZigzag()

func buildZigzag() [blockSize * blockSize]int {
	var order [blockSize * blockSize]int
	idx := 0
	for s := 0; s < 2*blockSize-1; s++ {
		if s%2 == 0 { // up-right
			for y := min(s, blockSize-1); y >= 0 && s-y < blockSize; y-- {
				order[idx] = y*blockSize + (s - y)
				idx++
			}
		} else { // down-left
			for x := min(s, blockSize-1); x >= 0 && s-x < blockSize; x-- {
				order[idx] = (s-x)*blockSize + x
				idx++
			}
		}
	}
	return order
}

// qpToStep maps a quantization parameter to a quantizer step size, doubling
// every 6 QP like H.264/H.265 (QP 4 -> step 1.0 for 8-bit samples). As in
// H.265, the step scales with bit depth — QP is defined relative to full
// scale, so a 16-bit plane's minimum step is 256x an 8-bit plane's. This is
// the codec property LiVo's depth scaling exploits (§3.2): values must be
// spread across the full 16-bit range or the effective quantization bins
// swallow neighbouring depths (Fig A.1).
func qpToStep(qp, bitDepth int) float64 {
	return exp2(float64(qp-4)/6.0) * exp2(float64(bitDepth-8))
}

// exp2 returns 2**x for finite x by the algorithm of the standard
// library's portable math.Exp2 — x = k + t with |t| ≤ 1/2, then a rational
// approximation of e**(t·ln2) — with every product rounded, so the
// quantizer steps are the same bits on every GOARCH. On amd64, which runs
// that portable code unfused, it returns math.Exp2's bits
// (TestQPToStepMatchesMath); arm64's math.Exp2 is assembly, and other
// ports may fuse the polynomial.
func exp2(x float64) float64 {
	const (
		ln2Hi = 6.93147180369123816490e-01
		ln2Lo = 1.90821492927058770002e-10
		p1    = 1.66666666666666657415e-01
		p2    = -2.77777777770155933842e-03
		p3    = 6.61375632143793436117e-05
		p4    = -1.65339022054652515390e-06
		p5    = 4.13813679705723846039e-08
	)
	var k int
	switch {
	case x > 0:
		k = int(x + 0.5)
	case x < 0:
		k = int(x - 0.5)
	}
	t := x - float64(k)
	hi := float64(t * ln2Hi)
	lo := float64(-t * ln2Lo)
	r := hi - lo
	z := float64(r * r)
	c := r - float64(z*(p1+float64(z*(p2+float64(z*(p3+float64(z*(p4+float64(z*p5)))))))))
	y := 1 - ((lo - float64(r*c)/(2-c)) - hi)
	return math.Ldexp(y, k)
}
