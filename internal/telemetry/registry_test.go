package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
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

// TestFuncSeriesKindMismatchPanics: a name is one kind of series. Push
// and read-at-scrape registrations of one name panic, in either order, as
// do a counter and a gauge series of one name.
func TestFuncSeriesKindMismatchPanics(t *testing.T) {
	counter := map[string]func() int64{"livo_x": nil}
	gauge := map[string]func() float64{"livo_x": nil}
	for name, twice := range map[string]func(*Registry){
		"push then func":     func(r *Registry) { r.Counter("livo_x"); r.Funcs(counter, nil) },
		"func then push":     func(r *Registry) { r.Funcs(nil, gauge); r.Gauge("livo_x") },
		"counter then gauge": func(r *Registry) { r.Funcs(counter, nil); r.Funcs(nil, gauge) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on kind mismatch")
				}
			}()
			twice(NewRegistry())
		})
	}
}

// TestFuncSeriesSumAndRetire: sources of one name sum at scrape time. A
// removed counter source's last value stays in the total, so a _total
// never goes backwards; a removed gauge source leaves the sum. Counters
// print as integers.
func TestFuncSeriesSumAndRetire(t *testing.T) {
	reg := NewRegistry()
	var a, b int64 = 3, 4
	rmA := reg.Funcs(map[string]func() int64{"livo_n_total": func() int64 { return a }},
		map[string]func() float64{"livo_g": func() float64 { return 0.5 }})
	reg.Funcs(map[string]func() int64{"livo_n_total": func() int64 { return b }},
		map[string]func() float64{"livo_g": func() float64 { return 0.25 }})
	expose := func() string {
		var sb strings.Builder
		reg.WriteMetrics(&sb)
		return sb.String()
	}
	for _, want := range []string{"# TYPE livo_n_total counter\nlivo_n_total 7\n", "# TYPE livo_g gauge\nlivo_g 0.75\n"} {
		if out := expose(); !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	a = 10
	rmA()
	rmA()    // idempotent
	a = 1000 // a removed source is not read again
	b = 5
	for _, want := range []string{"livo_n_total 15\n", "livo_g 0.25\n"} {
		if out := expose(); !strings.Contains(out, want) {
			t.Errorf("after removal, exposition missing %q in:\n%s", want, out)
		}
	}
}

// TestRegistryConcurrent hammers registration and updates from many
// goroutines, each also owning a read-at-scrape counter it removes at the
// end; run under -race this validates the lock-free paths and the
// scrape-time reads.
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
			var own atomic.Int64
			defer reg.Funcs(map[string]func() int64{"livo_owned_total": own.Load}, nil)()
			for i := 0; i < iters; i++ {
				own.Add(1)
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
	var sb strings.Builder
	reg.WriteMetrics(&sb)
	if want := fmt.Sprintf("livo_owned_total %d\n", workers*iters); !strings.Contains(sb.String(), want) {
		t.Fatalf("removed owners' counts lost: want %q in\n%s", want, sb.String())
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
