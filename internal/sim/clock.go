// Package sim provides the virtual clock that lets the trace-replay
// experiments (§4.1) run faster than real time on one CPU: network
// transmission and jitter-buffer delays are computed in virtual time while
// compute stages charge their measured cost. The live pipeline
// (internal/core with real UDP) uses the real clock instead.
package sim

// Clock is a monotonically advancing virtual clock (seconds).
type Clock struct {
	now float64
}

// Now returns the current virtual time in seconds.
func (c *Clock) Now() float64 { return c.now }

// AdvanceTo moves the clock to t if t is in the future.
func (c *Clock) AdvanceTo(t float64) {
	if t > c.now {
		c.now = t
	}
}
