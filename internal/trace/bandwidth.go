// Package trace provides the two workload inputs of the evaluation (§4.1):
// network bandwidth traces with the statistics of Table 4 (the paper scales
// real WiFi traces [58, 59]; we synthesize traces with matching statistics
// and variability, Fig A.3) and 6-DoF user pose traces (the paper collected
// them in an IRB study; we synthesize human-like viewer motion).
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"

	"livo/internal/geom"
)

// Bandwidth is a capacity trace: one sample per interval.
type Bandwidth struct {
	Name     string
	Interval float64   // seconds per sample
	Mbps     []float64 // capacity samples
}

// Duration returns the trace length in seconds.
func (b *Bandwidth) Duration() float64 { return float64(len(b.Mbps)) * b.Interval }

// At returns the capacity at time t (seconds), wrapping past the end so
// replays of any length work.
func (b *Bandwidth) At(t float64) float64 {
	if len(b.Mbps) == 0 {
		return 0
	}
	idx := int(t/b.Interval) % len(b.Mbps)
	if idx < 0 {
		idx = 0
	}
	return b.Mbps[idx]
}

// Stats are the summary statistics reported in Table 4.
type Stats struct {
	Mean, Max, Min, P90, P10 float64
}

// Stats computes the trace's summary statistics.
func (b *Bandwidth) Stats() Stats {
	if len(b.Mbps) == 0 {
		return Stats{}
	}
	s := append([]float64(nil), b.Mbps...)
	sortFloat64s(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	n := len(s)
	pct := func(p float64) float64 {
		pos := p / 100 * float64(n-1)
		lo := int(pos)
		hi := lo + 1
		if hi >= n {
			return s[n-1]
		}
		w := pos - float64(lo)
		return s[lo]*(1-w) + s[hi]*w
	}
	return Stats{
		Mean: sum / float64(n),
		Max:  s[n-1],
		Min:  s[0],
		P90:  pct(90),
		P10:  pct(10),
	}
}

func sortFloat64s(s []float64) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

// Scale multiplies every sample by k (the paper scales trace-1 by 10x and
// trace-2 by 15x to reach broadband capacities).
func (b *Bandwidth) Scale(k float64) *Bandwidth {
	out := &Bandwidth{Name: b.Name, Interval: b.Interval, Mbps: make([]float64, len(b.Mbps))}
	for i, v := range b.Mbps {
		out.Mbps[i] = v * k
	}
	return out
}

// synth generates a mean-reverting log-space random walk with occasional
// dips, then affinely adjusts it to hit the target mean and min/max —
// variability shaped like the WiFi traces of Fig A.3.
func synth(name string, seed int64, seconds int, target Stats, dipEvery, dipDepth float64) *Bandwidth {
	rng := rand.New(rand.NewSource(seed))
	n := seconds
	raw := make([]float64, n)
	x := 0.0 // log deviation from mean
	for i := 0; i < n; i++ {
		x = 0.92*x + rng.NormFloat64()*0.05
		v := math.Exp(x)
		// Occasional deep dips (mobility events in the mall trace).
		if dipEvery > 0 && rng.Float64() < 1/dipEvery {
			v *= dipDepth + rng.Float64()*(1-dipDepth)/2
		}
		raw[i] = v
	}
	// Normalize to [0,1], then map through w^γ so min and max stay exact
	// while γ (found by bisection) sets the mean.
	lo, hi := raw[0], raw[0]
	for _, v := range raw {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	ws := make([]float64, n)
	for i, v := range raw {
		ws[i] = (v - lo) / (hi - lo)
	}
	meanFor := func(gamma float64) float64 {
		var sum float64
		for _, w := range ws {
			sum += target.Min + math.Pow(w, gamma)*(target.Max-target.Min)
		}
		return sum / float64(n)
	}
	// mean is decreasing in γ; bisect on [0.05, 20].
	gLo, gHi := 0.05, 20.0
	for iter := 0; iter < 60; iter++ {
		mid := (gLo + gHi) / 2
		if meanFor(mid) > target.Mean {
			gLo = mid
		} else {
			gHi = mid
		}
	}
	gamma := (gLo + gHi) / 2
	out := make([]float64, n)
	for i, w := range ws {
		out[i] = target.Min + math.Pow(w, gamma)*(target.Max-target.Min)
	}
	return &Bandwidth{Name: name, Interval: 1, Mbps: out}
}

// Trace1 is the stationary home-WiFi trace scaled to ~217 Mbps mean
// (Table 4: mean 216.90, max 262.19, min 151.91).
func Trace1() *Bandwidth {
	return synth("trace-1", 101, 600,
		Stats{Mean: 216.90, Max: 262.19, Min: 151.91}, 0, 0)
}

// Trace2 is the mobile shopping-mall trace scaled to ~89 Mbps mean
// (Table 4: mean 89.20, max 106.37, min 36.35), with mobility dips.
func Trace2() *Bandwidth {
	return synth("trace-2", 202, 600,
		Stats{Mean: 89.20, Max: 106.37, Min: 36.35}, 45, 0.35)
}

// Traces returns both evaluation traces keyed by name.
func Traces() map[string]*Bandwidth {
	return map[string]*Bandwidth{"trace-1": Trace1(), "trace-2": Trace2()}
}

// WriteTo serializes the trace as a "# name interval=s" header and one Mbps
// sample per line, a Mahimahi-like plain-text format.
func (b *Bandwidth) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var total int64
	n, err := fmt.Fprintf(bw, "# %s interval=%g\n", b.Name, b.Interval)
	total += int64(n)
	if err != nil {
		return total, err
	}
	for _, v := range b.Mbps {
		n, err := fmt.Fprintf(bw, "%.4f\n", v)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, bw.Flush()
}

// PoseSample is one timestamped viewer pose.
type PoseSample struct {
	T    float64 // seconds from trace start
	Pose geom.Pose
}

// UserTrace is a recorded (here: synthesized) sequence of viewer poses at a
// fixed rate — what the headset records while the user moves around the
// scene (§4.1).
type UserTrace struct {
	Name    string
	Rate    float64 // samples per second
	Samples []PoseSample
}

// Duration returns the trace length in seconds.
func (u *UserTrace) Duration() float64 {
	if len(u.Samples) == 0 {
		return 0
	}
	return u.Samples[len(u.Samples)-1].T
}

// At returns the interpolated pose at time t, clamping at the ends and
// wrapping past the end of the trace.
func (u *UserTrace) At(t float64) geom.Pose {
	if len(u.Samples) == 0 {
		return geom.PoseIdentity
	}
	d := u.Duration()
	if d > 0 {
		t = math.Mod(t, d)
		if t < 0 {
			t += d
		}
	}
	idx := int(t * u.Rate)
	if idx >= len(u.Samples)-1 {
		return u.Samples[len(u.Samples)-1].Pose
	}
	a, b := u.Samples[idx], u.Samples[idx+1]
	if b.T == a.T {
		return a.Pose
	}
	w := (t - a.T) / (b.T - a.T)
	return a.Pose.Lerp(b.Pose, w)
}

// SynthUserTrace generates a human-like 6-DoF viewing trace: a smooth
// second-order random walk around the scene, with the gaze pulled toward
// points of interest (scene objects at ±1 m around the center). Three
// traces per video are generated with different seeds, like the study's
// three users per video.
func SynthUserTrace(name string, seed int64, seconds float64, rate float64) *UserTrace {
	rng := rand.New(rand.NewSource(seed))
	n := int(seconds * rate)
	u := &UserTrace{Name: name, Rate: rate, Samples: make([]PoseSample, 0, n)}

	pos := geom.V3(rng.Float64()*2-1, 1.5+rng.Float64()*0.3, 1.2+rng.Float64())
	vel := geom.Vec3{}
	dt := 1 / rate
	// Current point of interest: a subject position on the ring where
	// people stand in the dataset scenes. Users walk up to a ~1.1 m
	// standoff and inspect it, then shift attention (§4.3: "users often
	// focus on a few subjects at any given instant" — this close-up
	// behaviour is what makes culling effective).
	newPOI := func() geom.Vec3 {
		ang := rng.Float64() * 2 * math.Pi
		r := 0.8 + rng.Float64()*0.6
		return geom.V3(r*math.Cos(ang), 0.7+rng.Float64()*0.6, r*math.Sin(ang))
	}
	poi := newPOI()
	nextPoiChange := 3 + rng.Float64()*4
	for i := 0; i < n; i++ {
		t := float64(i) * dt
		if t >= nextPoiChange {
			poi = newPOI()
			nextPoiChange = t + 3 + rng.Float64()*4
		}
		// Desired viewpoint: outside the subject, at a standoff, at head
		// height.
		outward := geom.V3(poi.X, 0, poi.Z).Normalize()
		target := poi.Add(outward.Scale(1.1))
		target.Y = 1.45 + 0.15*math.Sin(t/3)
		// Smooth acceleration noise + spring toward the viewpoint.
		acc := geom.V3(rng.NormFloat64(), rng.NormFloat64()*0.25, rng.NormFloat64()).Scale(0.3)
		acc = acc.Add(target.Sub(pos).Scale(0.8))
		vel = vel.Add(acc.Scale(dt)).Scale(0.995)
		// Cap walking speed at ~1.2 m/s.
		if v := vel.Len(); v > 1.2 {
			vel = vel.Scale(1.2 / v)
		}
		pos = pos.Add(vel.Scale(dt))
		// Gaze: aim at the point of interest but rate-limit head rotation
		// to ~3 rad/s (passing close to a subject must not snap the head).
		want := geom.LookAt(pos, poi, geom.V3(0, 1, 0)).Rotation
		rot := want
		if len(u.Samples) > 0 {
			prev := u.Samples[len(u.Samples)-1].Pose.Rotation
			if ang := prev.AngleTo(want); ang > 3*dt {
				rot = prev.Slerp(want, 3*dt/ang)
			}
		}
		u.Samples = append(u.Samples, PoseSample{T: t, Pose: geom.Pose{Position: pos, Rotation: rot}})
	}
	return u
}

// UserTraces returns the three synthesized traces for a named video, with
// the trace length matching the video duration.
func UserTraces(video string, seconds float64) []*UserTrace {
	var out []*UserTrace
	var h int64
	for _, c := range video {
		h = h*131 + int64(c)
	}
	for i := 0; i < 3; i++ {
		out = append(out, SynthUserTrace(
			fmt.Sprintf("%s-user%d", video, i), h*7+int64(i)+1, seconds, 30))
	}
	return out
}
