// Package telemetry is the process-wide metrics layer: a registry of
// lock-free counters, gauges, and fixed-bucket histograms, and a /debugz
// HTTP endpoint exposing them (debugz.go). Per-frame stage timing is not
// kept here: it is the frame ledger's (internal/frametrace), one stamp per
// stage boundary, so a metric and a trace stage never time the same thing
// twice.
//
// The registry keeps only what /debugz serves: current counter and gauge
// values and cumulative histogram buckets, in Prometheus text format.
// Quantiles are the reader's to estimate from the buckets.
//
// Sessions and the relay count each event once, in the atomics behind their
// own Stats(), and register read-at-scrape series over them (Registry.Funcs).
//
// Everything is stdlib-only and allocation-free on the hot path: metric
// handles are resolved once at construction time (copy-on-write name map,
// so lookups during registration never block readers), and every update is
// a handful of atomic operations. No update sits inside an encode or
// decode: the frame path pays a few counter and gauge updates per frame.
//
// The package-level Default registry is what the library instruments
// unless a component is handed a private registry (experiments use private
// registries so concurrent tests cannot contaminate each other's
// counters).
package telemetry

// Default is the process-wide registry instrumented library code reports
// to when not handed a private one.
var Default = NewRegistry()
