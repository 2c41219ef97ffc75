// Package telemetry is the frame-path observability layer: a registry of
// lock-free counters, gauges, and fixed-bucket histograms; per-frame span
// tracing through the pipeline stages recorded into a lock-free ring
// buffer; and a /debugz HTTP endpoint exposing both (debugz.go).
//
// Everything is stdlib-only and allocation-free on the hot path: metric
// handles are resolved once at construction time (copy-on-write name map,
// so lookups during registration never block readers), and every update is
// a handful of atomic operations. A registry can be disabled
// (SetEnabled(false)), which turns every update into one atomic load and a
// branch — the overhead budget is ≤2% on the 4K color encode (registry on
// vs off around vcodec's BenchmarkEncode4KColor; last measured −1.0%, i.e.
// noise).
//
// The package-level Default registry is what the library instruments
// unless a component is handed a private registry (experiments use private
// registries so concurrent tests cannot contaminate each other's
// counters).
package telemetry

// Stage identifies one hop of the frame path (§3.1/Fig 2): the send side
// runs capture → cull → tile → encode(color|depth) → packetize → send, the
// receive side recv → jitter → depacketize → decode(color|depth) → pair →
// reconstruct/render.
type Stage uint8

// Frame-path stages, in pipeline order.
const (
	StageCapture Stage = iota
	StageCull
	StageTile
	StageEncodeColor
	StageEncodeDepth
	StagePacketize
	StageSend
	StageRecv
	StageJitter
	StageDepacketize
	StageDecodeColor
	StageDecodeDepth
	StagePair
	StageReconstruct
	StageRender
	numStages
)

var stageNames = [numStages]string{
	"capture", "cull", "tile", "encode_color", "encode_depth",
	"packetize", "send", "recv", "jitter", "depacketize",
	"decode_color", "decode_depth", "pair", "reconstruct", "render",
}

// String returns the stage's snake_case name (used in metric series names
// and span dumps).
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// NumStages is the number of defined frame-path stages.
const NumStages = int(numStages)

// LatencyBuckets are the default histogram bounds for stage latencies, in
// seconds: 100 µs to 2.5 s, roughly ×2.5 per bucket. They bracket both the
// sub-millisecond transport stages and multi-hundred-millisecond 4K
// software encodes.
var LatencyBuckets = []float64{
	100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3,
	50e-3, 100e-3, 250e-3, 500e-3, 1, 2.5,
}

// Default is the process-wide registry instrumented library code reports
// to when not handed a private one.
var Default = NewRegistry(4096)
