// Package metrics implements the quality measures used in the evaluation:
// pixel-domain depth RMSE and PointSSIM [22], the 3D structural-similarity
// metric used for all objective quality comparisons (§4.1). PointSSIM
// extends SSIM to point clouds by comparing local neighbourhood statistics
// (geometry dispersion and color luminance) between the reference and the
// distorted cloud; it reports separate geometry and color scores on a
// 0–100 scale where values in the high 80s and above are generally
// considered good.
package metrics

import (
	"math"
	"math/rand"
	"sort"

	"livo/internal/frame"
	"livo/internal/pointcloud"
)

// DepthRMSE is the root-mean-square error in millimeters over pixels that
// are valid (non-zero) in the reference.
func DepthRMSE(a, b *frame.DepthImage) float64 {
	if len(a.Pix) != len(b.Pix) || len(a.Pix) == 0 {
		return math.NaN()
	}
	var sum float64
	var n int
	for i := range a.Pix {
		if a.Pix[i] == 0 {
			continue
		}
		d := float64(int(a.Pix[i]) - int(b.Pix[i]))
		sum += d * d
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(n))
}

// PSSIM is a PointSSIM result: separate geometry and color scores, 0–100.
type PSSIM struct {
	Geometry float64
	Color    float64
}

// PSSIMOptions tune the PointSSIM computation.
type PSSIMOptions struct {
	// K is the neighbourhood size (default 10).
	K int
	// MaxPoints caps how many query points are evaluated per direction;
	// larger clouds are subsampled deterministically (default 2000).
	MaxPoints int
	// Seed drives the subsampling (default 1).
	Seed int64
}

func (o PSSIMOptions) withDefaults() PSSIMOptions {
	if o.K <= 0 {
		o.K = 10
	}
	if o.MaxPoints <= 0 {
		o.MaxPoints = 2000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// PointSSIM computes the symmetric PointSSIM between a reference and a
// distorted cloud. Either cloud being empty yields zero scores (the
// convention §4.3 uses for stalled frames).
func PointSSIM(ref, dist *pointcloud.Cloud, opts PSSIMOptions) PSSIM {
	opts = opts.withDefaults()
	if ref.Len() == 0 || dist.Len() == 0 {
		return PSSIM{}
	}
	refGrid := pointcloud.NewGrid(ref, 0)
	distGrid := pointcloud.NewGrid(dist, 0)
	g1, c1 := directionalSSIM(ref, refGrid, dist, distGrid, opts)
	g2, c2 := directionalSSIM(dist, distGrid, ref, refGrid, opts)
	// Symmetric pooling: the worse direction dominates (standard for point
	// cloud metrics: missing regions must hurt).
	return PSSIM{
		Geometry: 100 * math.Min(g1, g2),
		Color:    100 * math.Min(c1, c2),
	}
}

// neighborhood statistics of a point in its own cloud.
type stats struct {
	geoMean, geoStd float64 // neighbour-distance dispersion
	lumMean, lumStd float64 // neighbourhood luminance
}

func neighborhoodStats(c *pointcloud.Cloud, g *pointcloud.Grid, idx int, k int) stats {
	nn := g.KNearest(c.Positions[idx], k+1) // includes the point itself
	var st stats
	var n float64
	var lum []float64
	var dists []float64
	for _, nb := range nn {
		l := luminance(c.Colors[nb.Index])
		lum = append(lum, l)
		if nb.Index != idx {
			dists = append(dists, nb.Dist)
		}
		n++
	}
	st.geoMean = mean(dists)
	st.geoStd = stddev(dists, st.geoMean)
	st.lumMean = mean(lum)
	st.lumStd = stddev(lum, st.lumMean)
	return st
}

// directionalSSIM computes mean geometry and color similarity from cloud A
// (queries) to cloud B.
func directionalSSIM(a *pointcloud.Cloud, aGrid *pointcloud.Grid, b *pointcloud.Cloud, bGrid *pointcloud.Grid, opts PSSIMOptions) (geo, col float64) {
	rng := rand.New(rand.NewSource(opts.Seed))
	n := a.Len()
	queries := make([]int, 0, opts.MaxPoints)
	if n <= opts.MaxPoints {
		for i := 0; i < n; i++ {
			queries = append(queries, i)
		}
	} else {
		for _, i := range rng.Perm(n)[:opts.MaxPoints] {
			queries = append(queries, i)
		}
	}

	// SSIM stabilizers, scaled to the data ranges (luminance 0..255;
	// geometry dispersion uses the reference cloud's average spacing).
	const c1Lum = (0.01 * 255) * (0.01 * 255)
	const c2Lum = (0.03 * 255) * (0.03 * 255)
	spacing := aGrid.Cell()
	c1Geo := (0.05 * spacing) * (0.05 * spacing)
	c2Geo := c1Geo

	var geoSum, colSum float64
	for _, qi := range queries {
		sa := neighborhoodStats(a, aGrid, qi, opts.K)
		bi, d := bGrid.Nearest(a.Positions[qi])
		sb := neighborhoodStats(b, bGrid, bi, opts.K)
		// Geometry: local-structure similarity times a point-to-point
		// registration term (both families of features appear in
		// PointSSIM's geometry feature set [22]). The registration scale
		// is the query's own local spacing: displacement beyond a few
		// neighbour spacings means the surface is in the wrong place
		// (coarse meshes, heavy quantization), not just re-sampled.
		structure := ssimTerm(sa.geoMean, sb.geoMean, c1Geo) * ssimTerm(sa.geoStd, sb.geoStd, c2Geo)
		ds := 2 * math.Max(sa.geoMean, 1e-9)
		registration := ds * ds / (ds*ds + d*d)
		geoSum += structure * registration
		colSum += ssimTerm(sa.lumMean, sb.lumMean, c1Lum) * ssimTerm(sa.lumStd, sb.lumStd, c2Lum)
	}
	m := float64(len(queries))
	return geoSum / m, colSum / m
}

// ssimTerm is the SSIM-style similarity of two non-negative statistics.
func ssimTerm(x, y, c float64) float64 {
	return (2*x*y + c) / (x*x + y*y + c)
}

func luminance(c [3]uint8) float64 {
	return 0.299*float64(c[0]) + 0.587*float64(c[1]) + 0.114*float64(c[2])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func stddev(xs []float64, mu float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var s float64
	for _, x := range xs {
		d := x - mu
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// Mean returns the arithmetic mean of xs (0 for empty input). Exported for
// experiment aggregation.
func Mean(xs []float64) float64 { return mean(xs) }

// Std returns the sample standard deviation of xs.
func Std(xs []float64) float64 { return stddev(xs, mean(xs)) }

// Percentile returns the p-th percentile (0..100) of xs by linear
// interpolation; NaN for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	w := pos - float64(lo)
	return s[lo]*(1-w) + s[hi]*w
}
