package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics. Metric handles are registered once
// (GetOrCreate semantics, guarded by a mutex) and then updated lock-free,
// or read at scrape time (Funcs); the name→metric map is copy-on-write so
// handle lookups and the exposition path never block updates.
type Registry struct {
	mu      sync.Mutex   // guards registration (map copy) only
	metrics atomic.Value // map[string]any — *Counter, *Gauge, *Histogram or *funcSeries
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	r.metrics.Store(map[string]any{})
	return r
}

func (r *Registry) load() map[string]any { return r.metrics.Load().(map[string]any) }

// register returns the existing metric under name or inserts the one built
// by mk, copying the map so concurrent readers never see a partial write.
func (r *Registry) register(name string, mk func() any) any {
	if m, ok := r.load()[name]; ok {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.load()
	if m, ok := old[name]; ok {
		return m
	}
	m := mk()
	next := make(map[string]any, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[name] = m
	r.metrics.Store(next)
	return m
}

// Counter returns the counter registered under name, creating it if
// needed. Registering the same name as a different metric kind panics
// (programmer error, caught at startup).
func (r *Registry) Counter(name string) *Counter {
	m := r.register(name, func() any { return &Counter{} })
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("telemetry: %q already registered as %T", name, m))
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	m := r.register(name, func() any { return &Gauge{} })
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("telemetry: %q already registered as %T", name, m))
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given ascending bucket upper bounds (an implicit +Inf bucket is
// appended). Buckets are fixed at registration; later calls ignore the
// argument and return the existing histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	m := r.register(name, func() any { return newHistogram(bounds) })
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("telemetry: %q already registered as %T", name, m))
	}
	return h
}

// Funcs registers read-at-scrape series: each function is one source of
// the counter or gauge series of its name, which reads the sum of its
// sources when the registry is written. The returned function removes them
// all; owners call it on Close. A removed counter's last value stays in the
// sum, so a _total never goes backwards; a removed gauge leaves it. A gauge
// that does not add up (a maximum, a ratio) needs one source per registry.
// A name held by a push metric or by the other kind panics. Functions run
// under their series' lock and must not call back into the registry.
func (r *Registry) Funcs(counters map[string]func() int64, gauges map[string]func() float64) (remove func()) {
	var removes []func()
	add := func(name string, counter bool, fn func() float64) {
		m := r.register(name, func() any { return &funcSeries{counter: counter, srcs: map[*func() float64]bool{}} })
		f, ok := m.(*funcSeries)
		if !ok || f.counter != counter {
			panic(fmt.Sprintf("telemetry: %q already registered as another kind (%T)", name, m))
		}
		key := &fn
		f.mu.Lock()
		f.srcs[key] = true
		f.mu.Unlock()
		removes = append(removes, func() {
			f.mu.Lock()
			defer f.mu.Unlock()
			if f.srcs[key] && f.counter {
				f.retired += fn()
			}
			delete(f.srcs, key)
		})
	}
	for name, fn := range counters {
		add(name, true, func() float64 { return float64(fn()) })
	}
	for name, fn := range gauges {
		add(name, false, fn)
	}
	return func() {
		for _, rm := range removes {
			rm()
		}
	}
}

// funcSeries is one read-at-scrape series: its live sources and, for a
// counter, retired — the sum of its removed sources' last values.
type funcSeries struct {
	counter bool
	mu      sync.Mutex
	srcs    map[*func() float64]bool
	retired float64
}

func (f *funcSeries) value() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	v := f.retired
	for fn := range f.srcs {
		v += (*fn)()
	}
	return v
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
// A nil *Counter is a valid no-op handle, so optionally instrumented
// components can leave their handles nil instead of branching at each site.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable float64 value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// SetInt stores an integer value.
func (g *Gauge) SetInt(v int64) { g.Set(float64(v)) }

// Value returns the last stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram with atomic per-bucket counts.
// Observations must be non-negative (latencies, sizes); /debugz serves the
// cumulative buckets, and readers estimate quantiles from them.
type Histogram struct {
	bounds []float64 // ascending upper bounds; counts has one extra +Inf slot
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// bucketIndex is the index of the first bound >= v (binary search; the
// bucket lists are short enough that this is a few cache lines).
func (h *Histogram) bucketIndex(v float64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[h.bucketIndex(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns how many values were observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// HistSnapshot is a consistent-enough copy of a histogram for reporting
// (individual loads are atomic; the snapshot as a whole is not).
type HistSnapshot struct {
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// WriteMetrics writes every registered metric in Prometheus text
// exposition format, sorted by name. Counters, push or read-at-scrape,
// print as integers; histograms expose cumulative _bucket/_sum/_count
// series.
func (r *Registry) WriteMetrics(w io.Writer) {
	m := r.load()
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		switch v := m[name].(type) {
		case *Counter:
			fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, v.Value())
		case *Gauge:
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", name, name, v.Value())
		case *funcSeries:
			kind, format := "gauge", "%g"
			if v.counter {
				kind, format = "counter", "%.0f"
			}
			fmt.Fprintf(w, "# TYPE %s %s\n%s "+format+"\n", name, kind, name, v.value())
		case *Histogram:
			s := v.Snapshot()
			fmt.Fprintf(w, "# TYPE %s histogram\n", name)
			var cum int64
			for i, b := range s.Bounds {
				cum += s.Counts[i]
				fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatBound(b), cum)
			}
			cum += s.Counts[len(s.Counts)-1]
			fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
			fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, s.Sum, name, s.Count)
		}
	}
}

func formatBound(b float64) string { return fmt.Sprintf("%g", b) }
