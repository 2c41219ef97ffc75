// Package split implements LiVo's adaptive bandwidth-splitting controller
// (§3.3). The sender encodes each frame with the current split s (fraction
// of the available bandwidth given to the depth stream), decodes its own
// output, compares normalized depth and color RMSE, and walks s by a fixed
// step δ via multi-dimensional line search until the two errors balance:
//
//	|RMSE_d − RMSE_c| ≤ ε    → keep s
//	RMSE_d − RMSE_c  > ε     → s += δ   (depth worse: give it more)
//	otherwise                → s −= δ
//
// s is clamped to [0.5, 0.9]: depth always gets at least half (humans are
// more sensitive to depth distortion [95]), and at most 90% so starved
// color cannot drive s to 1 under low bandwidth.
package split

// Controller is the line-search split controller. RMSE inputs must be
// normalized to their full scale (depth RMSE / 65535, color RMSE / 255) so
// the two are comparable.
type Controller struct {
	// S is the current split: the fraction of available bandwidth
	// allocated to the depth stream.
	S float64
	// Epsilon is the balance tolerance on normalized RMSE difference.
	Epsilon float64
	// Delta is the line-search step size (paper: 0.005).
	Delta float64
	// Min and Max clamp the split (paper: 0.5 and 0.9).
	Min, Max float64
	// EvaluateEvery is k: quality is probed every k-th frame (paper: 3).
	EvaluateEvery int

	frames int
}

// New returns a controller with the paper's parameters and the given
// initial split s_i (Fig 4 suggests ≈0.9 at 80 Mbps; §3.3 allows any
// empirical initial value — values are clamped into range).
func New(initial float64) *Controller {
	c := &Controller{
		S:             initial,
		Epsilon:       0.002,
		Delta:         0.005,
		Min:           0.5,
		Max:           0.9,
		EvaluateEvery: 3,
	}
	c.clamp()
	return c
}

func (c *Controller) clamp() {
	if c.S < c.Min {
		c.S = c.Min
	}
	if c.S > c.Max {
		c.S = c.Max
	}
}

// Split returns the current split.
func (c *Controller) Split() float64 { return c.S }

// Budgets divides the total per-frame byte budget between depth and color.
func (c *Controller) Budgets(totalBytes int) (depthBytes, colorBytes int) {
	d := int(float64(totalBytes) * c.S)
	if d < 1 {
		d = 1
	}
	cB := totalBytes - d
	if cB < 1 {
		cB = 1
	}
	return d, cB
}

// Tick advances the frame counter and reports whether this frame's quality
// should be evaluated (every k-th frame; the first frame always evaluates).
func (c *Controller) Tick() bool {
	ev := c.frames%c.EvaluateEvery == 0
	c.frames++
	return ev
}

// Observe updates the split from one quality probe: normalized depth and
// color RMSE of the latest encoded frame. It returns the (possibly
// unchanged) split.
func (c *Controller) Observe(normDepthRMSE, normColorRMSE float64) float64 {
	diff := normDepthRMSE - normColorRMSE
	switch {
	case diff > c.Epsilon:
		c.S += c.Delta
	case diff < -c.Epsilon:
		c.S -= c.Delta
	}
	c.clamp()
	return c.S
}
