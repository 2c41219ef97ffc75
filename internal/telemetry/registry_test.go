package telemetry

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("livo_test_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := reg.Counter("livo_test_total"); again != c {
		t.Fatal("re-registration returned a different handle")
	}
	g := reg.Gauge("livo_test_gauge")
	g.Set(0.85)
	if got := g.Value(); got != 0.85 {
		t.Fatalf("gauge = %g, want 0.85", got)
	}

	reg.SetEnabled(false)
	c.Inc()
	g.Set(99)
	if c.Value() != 5 || g.Value() != 0.85 {
		t.Fatalf("disabled registry recorded updates: c=%d g=%g", c.Value(), g.Value())
	}
	reg.SetEnabled(true)
}

func TestRegisterKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("livo_mismatch")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	reg.Gauge("livo_mismatch")
}

// TestHistogramQuantileUniform checks quantile estimates against a known
// uniform distribution: with per-unit buckets the linear interpolation is
// exact up to one bucket width.
func TestHistogramQuantileUniform(t *testing.T) {
	reg := NewRegistry()
	bounds := make([]float64, 100)
	for i := range bounds {
		bounds[i] = float64(i + 1) // 1..100
	}
	h := reg.Histogram("livo_uniform", bounds)
	rng := rand.New(rand.NewSource(1))
	const n = 100000
	for i := 0; i < n; i++ {
		h.Observe(rng.Float64() * 100)
	}
	if h.Count() != n {
		t.Fatalf("count = %d, want %d", h.Count(), n)
	}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.9, 0.99} {
		got := h.Quantile(q)
		want := q * 100
		if math.Abs(got-want) > 1.5 { // one bucket width + sampling noise
			t.Errorf("q%.2f = %.2f, want ~%.2f", q, got, want)
		}
	}
	if mean := h.Sum() / float64(h.Count()); math.Abs(mean-50) > 0.5 {
		t.Errorf("mean = %.2f, want ~50", mean)
	}
}

// TestHistogramQuantileExponential checks quantiles of a (scaled)
// exponential distribution against its analytic inverse CDF.
func TestHistogramQuantileExponential(t *testing.T) {
	reg := NewRegistry()
	bounds := make([]float64, 200)
	for i := range bounds {
		bounds[i] = 0.05 * float64(i+1) // 0.05..10
	}
	h := reg.Histogram("livo_exp", bounds)
	rng := rand.New(rand.NewSource(2))
	const n = 200000
	for i := 0; i < n; i++ {
		h.Observe(rng.ExpFloat64()) // mean 1
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got := h.Quantile(q)
		want := -math.Log(1 - q) // inverse CDF of Exp(1)
		if math.Abs(got-want) > 0.1 {
			t.Errorf("q%.2f = %.3f, want ~%.3f", q, got, want)
		}
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("livo_edge", []float64{1, 2})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}
	h.Observe(100) // lands in +Inf bucket
	if got := h.Quantile(0.99); !math.IsInf(got, 1) {
		t.Errorf("+Inf-bucket quantile = %g, want +Inf sentinel (a finite bound would underestimate)", got)
	}
	h.Observe(1.5) // now half the mass is finite again
	if got := h.Quantile(0.25); got < 1 || got > 2 {
		t.Errorf("in-range quantile = %g, want within (1, 2]", got)
	}
	if got := h.Quantile(0.99); !math.IsInf(got, 1) {
		t.Errorf("rank beyond the last bound = %g, want +Inf sentinel", got)
	}
}

// TestHistogramQuantileNoFiniteBuckets checks the single-bucket guard: a
// histogram with no finite bounds has only the +Inf overflow bucket, so
// any quantile estimate would be fabricated — the sentinel is NaN even
// after observations arrive.
func TestHistogramQuantileNoFiniteBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("livo_nobounds", nil)
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("empty no-bounds histogram should be NaN")
	}
	h.Observe(42)
	h.Observe(7)
	if h.Count() != 2 {
		t.Fatalf("count = %d", h.Count())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); !math.IsNaN(got) {
			t.Errorf("q%.2f = %g, want NaN sentinel for a single-bucket histogram", q, got)
		}
	}
	if h.Sum() != 49 {
		t.Errorf("sum = %g, want 49 (count/sum still track without buckets)", h.Sum())
	}
}

// TestRegistryConcurrent hammers registration and updates from many
// goroutines; run under -race this validates the lock-free paths.
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	names := []string{"livo_a_total", "livo_b_total", "livo_c_total", "livo_d_total"}
	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				reg.Counter(names[i%len(names)]).Inc()
				reg.Gauge("livo_g").Set(float64(i))
				reg.Histogram("livo_h", []float64{1e-3, 10e-3, 0.1}).Observe(float64(i%100) / 1000)
				if i%100 == 0 {
					var sb strings.Builder
					reg.WriteMetrics(&sb) // exposition concurrent with updates
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, n := range names {
		total += reg.Counter(n).Value()
	}
	if want := int64(workers * iters); total != want {
		t.Fatalf("lost updates: counters sum to %d, want %d", total, want)
	}
	if got := reg.Histogram("livo_h", nil).Count(); got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
}

func TestWriteMetricsFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("livo_frames_total").Add(3)
	reg.Gauge("livo_split_s").Set(0.8)
	h := reg.Histogram("livo_lat_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	var sb strings.Builder
	reg.WriteMetrics(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE livo_frames_total counter\nlivo_frames_total 3\n",
		"# TYPE livo_split_s gauge\nlivo_split_s 0.8\n",
		"livo_lat_seconds_bucket{le=\"0.1\"} 1\n",
		"livo_lat_seconds_bucket{le=\"1\"} 2\n",
		"livo_lat_seconds_bucket{le=\"+Inf\"} 3\n",
		"livo_lat_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}
