package telemetry

import (
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
	nb := reg.Histogram("livo_nobounds", nil) // +Inf bucket only: count and sum still track
	nb.Observe(42)
	nb.Observe(7)
	var sb strings.Builder
	reg.WriteMetrics(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE livo_frames_total counter\nlivo_frames_total 3\n",
		"# TYPE livo_split_s gauge\nlivo_split_s 0.8\n",
		"livo_lat_seconds_bucket{le=\"0.1\"} 1\n",
		"livo_lat_seconds_bucket{le=\"1\"} 2\n",
		"livo_lat_seconds_bucket{le=\"+Inf\"} 3\n",
		"livo_lat_seconds_sum 5.55\n",
		"livo_lat_seconds_count 3\n",
		"livo_nobounds_bucket{le=\"+Inf\"} 2\n",
		"livo_nobounds_sum 49\n",
		"livo_nobounds_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}
