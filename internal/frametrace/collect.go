package frametrace

import (
	"math"
	"sort"
)

// FrameTimeline is one frame's merged hop times on a common clock. A hop
// is present when its bit in Has is set; hops a frame reaches on several
// streams (color and depth both cross the wire) keep the latest time —
// the frame has cleared a hop only once its last stream has.
type FrameTimeline struct {
	Seq uint32
	T   [NumHops]int64
	Has uint32 // bit h set when T[h] is valid
}

// Get returns the frame's time at hop h and whether it was stamped.
func (tl *FrameTimeline) Get(h Hop) (int64, bool) {
	return tl.T[h], tl.Has&(1<<uint(h)) != 0
}

func (tl *FrameTimeline) set(h Hop, t int64) {
	if tl.Has&(1<<uint(h)) == 0 || t > tl.T[h] {
		tl.T[h] = t
	}
	tl.Has |= 1 << uint(h)
}

// Complete reports whether every hop in hops was stamped.
func (tl *FrameTimeline) Complete(hops []Hop) bool {
	for _, h := range hops {
		if tl.Has&(1<<uint(h)) == 0 {
			return false
		}
	}
	return true
}

// Collector merges per-process ledgers into per-frame timelines. Every
// ledger it merges must stamp on one shared clock, as the ledgers of one
// process do; merging ledgers from different hosts would first need their
// clock offsets, which nothing here estimates.
type Collector struct {
	ledgers []*Ledger
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Add registers a ledger. Nil ledgers are ignored.
func (c *Collector) Add(l *Ledger) {
	if l == nil {
		return
	}
	c.ledgers = append(c.ledgers, l)
}

// Merge drains every ledger's retained stamps and groups them into one
// timeline per frame sequence, ordered by sequence. Per-subscriber hops
// (sub_enqueue, sub_drain) keep only stamps for subscriber sub so the
// timeline follows one frame to one viewer; pass NoSub to accept any.
func (c *Collector) Merge(sub int32) []FrameTimeline {
	bySeq := make(map[uint32]*FrameTimeline)
	for _, l := range c.ledgers {
		for _, st := range l.Recent(l.Cap()) {
			if st.Sub != NoSub && sub != NoSub && st.Sub != sub {
				continue
			}
			tl := bySeq[st.Seq]
			if tl == nil {
				tl = &FrameTimeline{Seq: st.Seq}
				bySeq[st.Seq] = tl
			}
			tl.set(st.Hop, st.TimeNs)
		}
	}
	out := make([]FrameTimeline, 0, len(bySeq))
	for _, tl := range bySeq {
		out = append(out, *tl)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// stageDef is one decomposition stage: the time from hop from to hop to.
// Virtual endpoints vEncode/vDecode take the later of the color/depth
// pair, matching how the receiver can only proceed once both are done.
type stageDef struct {
	Name     string
	From, To Hop
}

const (
	vEncode Hop = Hop(NumHops) + iota // max(encode_color, encode_depth)
	vDecode                           // max(decode_color, decode_depth)
)

// Stages is the canonical capture→render decomposition, in order. Each
// stage's duration is the gap between consecutive chain points, so over
// any frame with a complete timeline the stage durations telescope to
// exactly the end-to-end latency.
var Stages = []stageDef{
	{"cull", HopCapture, HopCull}, // cull (or copy) the views into the tiles
	{"tile", HopCull, HopTile},    // marker stamp + color conversion
	{"encode", HopTile, vEncode},  // color/depth encode
	{"packetize", vEncode, HopPacketize},
	{"uplink", HopPacketize, HopRelayIngest},       // pacer hand-off, pacing + sender→relay wire
	{"shard_route", HopRelayIngest, HopShardRoute}, // ingest ring wait
	{"fanout", HopShardRoute, HopSubEnqueue},
	{"queue_wait", HopSubEnqueue, HopSubDrain}, // subscriber queue residency
	{"downlink", HopSubDrain, HopWire},         // batch write + relay→receiver wire
	{"jitter_wait", HopWire, HopJitter},        // depacketize, assembly + playout delay
	{"decode", HopJitter, vDecode},
	{"reconstruct", vDecode, HopReconstruct}, // color/depth pairing + reconstruction
}

// chainPoint resolves a (possibly virtual) chain endpoint on a timeline.
func chainPoint(tl *FrameTimeline, h Hop) (int64, bool) {
	switch h {
	case vEncode:
		return pairMax(tl, HopEncodeColor, HopEncodeDepth)
	case vDecode:
		return pairMax(tl, HopDecodeColor, HopDecodeDepth)
	default:
		return tl.Get(h)
	}
}

func pairMax(tl *FrameTimeline, a, b Hop) (int64, bool) {
	ta, oka := tl.Get(a)
	tb, okb := tl.Get(b)
	switch {
	case oka && okb:
		if tb > ta {
			return tb, true
		}
		return ta, true
	case oka:
		return ta, true
	case okb:
		return tb, true
	}
	return 0, false
}

// StageStat summarizes one stage's per-frame durations.
type StageStat struct {
	Name   string  `json:"stage"`
	Count  int     `json:"count"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`
}

// Report is the paper-style latency decomposition over a set of merged
// frame timelines.
type Report struct {
	Frames   int `json:"frames"`          // timelines considered
	Complete int `json:"complete_frames"` // frames with every chain point stamped
	// Stages holds per-stage stats over every frame where both stage
	// endpoints were stamped; EndToEnd is capture→reconstruct.
	Stages   []StageStat `json:"stages"`
	EndToEnd StageStat   `json:"end_to_end"`
	// Reconciliation over complete frames: the mean of per-frame stage
	// sums against the mean measured end-to-end latency. Telescoping
	// makes these agree exactly up to rounding; a large ReconcilePct
	// means a hop is stamped out of order or on the wrong clock.
	StageSumMeanMs float64 `json:"stage_sum_mean_ms"`
	ReconcilePct   float64 `json:"reconcile_pct"`
}

// Decompose computes the latency decomposition for merged timelines.
func Decompose(tls []FrameTimeline) Report {
	rep := Report{Frames: len(tls)}
	perStage := make([][]float64, len(Stages))
	var e2e []float64
	var sumStages, sumE2E float64
	for i := range tls {
		tl := &tls[i]
		complete := true
		var frameSum float64
		for si, sd := range Stages {
			from, okF := chainPoint(tl, sd.From)
			to, okT := chainPoint(tl, sd.To)
			if !okF || !okT {
				complete = false
				continue
			}
			d := float64(to-from) / 1e6
			perStage[si] = append(perStage[si], d)
			frameSum += d
		}
		cap0, okC := tl.Get(HopCapture)
		rec, okR := tl.Get(HopReconstruct)
		if okC && okR {
			e2e = append(e2e, float64(rec-cap0)/1e6)
		}
		if complete && okC && okR {
			rep.Complete++
			sumStages += frameSum
			sumE2E += float64(rec-cap0) / 1e6
		}
	}
	for si, sd := range Stages {
		rep.Stages = append(rep.Stages, stageStat(sd.Name, perStage[si]))
	}
	rep.EndToEnd = stageStat("end_to_end", e2e)
	if rep.Complete > 0 {
		rep.StageSumMeanMs = sumStages / float64(rep.Complete)
		meanE2E := sumE2E / float64(rep.Complete)
		if meanE2E != 0 {
			rep.ReconcilePct = math.Abs(rep.StageSumMeanMs-meanE2E) / meanE2E * 100
		}
	}
	return rep
}

func stageStat(name string, ds []float64) StageStat {
	st := StageStat{Name: name, Count: len(ds)}
	if len(ds) == 0 {
		return st
	}
	sorted := append([]float64(nil), ds...)
	sort.Float64s(sorted)
	var sum float64
	for _, d := range ds {
		sum += d
	}
	st.P50Ms = pct(sorted, 0.50)
	st.P99Ms = pct(sorted, 0.99)
	st.MeanMs = sum / float64(len(ds))
	return st
}

// pct returns the q-quantile of a sorted slice (nearest-rank).
func pct(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
