package main

import (
	"fmt"
	"time"
)

// span is one traced interval, kept in memory and written with the result.
type span struct {
	Trace   uint64  `json:"trace"` // frame seq × 16 + receiver
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartMs float64 `json:"start_ms"` // since the first timed frame was due
	EndMs   float64 `json:"end_ms"`
}

// result is what one workload run reports.
type result struct {
	attempted, failed int
	problems          []string           // correctness failures: the run is not correct
	warnings          []string           // disturbances of the measurement, not of the program
	metrics           map[string]float64 // end-to-end and per-layer, by name
	samples           map[string]int     // sample count behind a metric
	spans             []span
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, samples: map[string]int{}}
}

func (r *result) set(name string, v float64, n int) {
	r.metrics[name] = v
	r.samples[name] = n
}

// hostSpeed records the window's probe figures.
func (r *result) hostSpeed(s *speedProbe) {
	r.set("bench.host_speed", s.speed(), len(s.ms))
	r.set("bench.probe_ms.mean", mean(s.ms), len(s.ms))
}

func (r *result) setPcts(name string, xs []float64, ps ...float64) {
	for _, p := range ps {
		r.set(fmt.Sprintf("%s.p%.0f", name, p), percentile(xs, p), len(xs))
	}
}

// outcome is what became of one offered frame at one receiver.
type outcome struct {
	fresh   bool // displayed from its own data
	display display
	latency time.Duration // due → Render returned (fresh only)
}

// outcomes resolves every timed frame at receiver r. A fresh frame displayed
// twice is a problem; one displayed after a later frame is counted (a
// receiver whose relay moves it between rungs drains one jitter buffer per
// rung, in no fixed order).
func (p *pass) outcomes(r *receiver) (out []outcome, outOfOrder int, problems []string) {
	out = make([]outcome, len(p.offers))
	seen := map[uint32]bool{}
	last := int64(-1)
	for _, d := range r.displays {
		if d.concealed {
			continue
		}
		if seen[d.seq] {
			problems = append(problems, fmt.Sprintf("receiver %d displayed fresh seq %d twice", r.class, d.seq))
			continue
		}
		seen[d.seq] = true
		if int64(d.seq) < last {
			outOfOrder++
		} else {
			last = int64(d.seq)
		}
		if i := int(d.seq) - warmFrames; i >= 0 && i < len(out) {
			out[i] = outcome{fresh: true, display: d, latency: d.done.Sub(p.offers[i].due)}
		}
	}
	return out, outOfOrder, problems
}

// endToEnd fills the end-to-end metrics of a pass, each over the whole timed
// window.
func (p *pass) endToEnd(res *result, c *clip, seed int64) {
	n := len(p.offers)
	// The warm-up is a second by the clock; the rest of set-up is computing.
	res.set("setup_s", (c.took+p.construct).Seconds()*c.speed+p.warmup.Seconds(), 1)

	// Every (frame, receiver) pair is one attempt. It fails when the program
	// got it wrong (shown twice); a frame that was late, concealed, skipped or
	// lost counts against ontime_frame_ratio instead: a host stall makes
	// frames late, and the loss schedule conceals some by design.
	var lat []float64
	byFrame := make([][]float64, n)
	onTime := 0
	for _, r := range p.recvs {
		outs, _, problems := p.outcomes(r)
		res.problems = append(res.problems, problems...)
		res.failed += len(problems)
		for i, o := range outs {
			if !o.fresh {
				continue
			}
			lat = append(lat, ms(o.latency))
			byFrame[i] = append(byFrame[i], ms(o.latency))
			if o.latency <= ontimeLimit {
				onTime++
			}
		}
	}
	res.attempted = n * len(p.recvs)
	window := float64(n) / fps // seconds
	res.set("e2e_latency_p50_ms", percentile(lat, 50), len(lat))
	res.set("e2e_latency_p95_ms", typicalTail(byFrame, fps, 95), len(lat))
	res.set("bench.window_p95_ms", percentile(lat, 95), len(lat))
	res.set("ontime_frame_ratio", float64(onTime)/float64(res.attempted), res.attempted)
	res.set("pipeline_fps", float64(len(lat))/float64(len(p.recvs))/window, res.attempted)
	res.set("rate_util", p.counters["session.send_bytes"]*8/(p.spec.rateBps*window), n)
	// Latency here is mostly waiting (pacer, playout delay), so only the CPU
	// figure is put on the reference host's speed.
	res.hostSpeed(&p.probe)
	res.set("cpu_ms_per_frame", ms(p.usage.user+p.usage.sys)/float64(n)*p.probe.speed(), n)
	// A late generator is the host's doing, not the program's: the latencies
	// above already count it (they run from the due time), so it only warns.
	if late := percentile(p.genLate(), 99); late >= 5 {
		res.warnings = append(res.warnings, fmt.Sprintf("generator ran %.1f ms late at p99 (want < 5): host busy or stalled", late))
	}

	// Quality as displayed, at the rung-0 receiver and at the lowest-rate one
	// (the same receiver when the workload has no ladder).
	score := func(r *receiver, suffixes ...string) {
		var samples []shown
		for i := 0; i < n; i += sampleEvery {
			seq := uint32(warmFrames + i)
			s, ok := r.shown[seq]
			if !ok {
				s = shown{frame: int(seq)}
			}
			samples = append(samples, s)
		}
		scores, err := scoreShown(c, samples, p.spec.maxPoints, seed)
		setQuality(res, scores, err, suffixes...)
	}
	if low := p.recvs[len(p.recvs)-1]; low != p.recvs[0] {
		score(p.recvs[0], "")
		score(low, "_rung2")
	} else {
		score(low, "", "_rung2")
	}
	res.problems = append(res.problems, p.problems...)
}

// genLate is how late the generator woke for each timed frame, in ms.
func (p *pass) genLate() []float64 {
	late := make([]float64, len(p.offers))
	for i, o := range p.offers {
		late[i] = ms(o.late)
	}
	return late
}

// stage is one boundary-to-boundary interval of a frame's life.
type stage struct {
	name string
	at   func(r *receiver, k frameKey) (time.Time, bool) // when the frame reached the stage's end boundary
}

// layers fills the per-layer metrics and spans of a traced pass: boundary
// stages that telescope from a frame's due time to its Render return, and
// the counters read from public Stats() over the timed window.
func (p *pass) layers(res *result) {
	n := len(p.offers)
	relayed := p.relayTap != nil
	tapAt := func(l func(r *receiver) *frameLog) func(*receiver, frameKey) (time.Time, bool) {
		return func(r *receiver, k frameKey) (time.Time, bool) { return l(r).doneAt(k) }
	}
	stages := []stage{
		{"session.send_call_ms", func(_ *receiver, k frameKey) (time.Time, bool) { return p.offers[int(k.seq)-warmFrames].ret, true }},
		{"session.pace_wait_ms", tapAt(func(*receiver) *frameLog { return p.sendTap.any })},
	}
	if relayed {
		stages = append(stages,
			stage{"udpio.uplink_ms", tapAt(func(*receiver) *frameLog { return p.relayTap.in })},
			stage{"relaycore.transit_ms", tapAt(func(r *receiver) *frameLog { return p.relayTap.egress(r.addr) })},
			stage{"udpio.downlink_ms", tapAt(func(r *receiver) *frameLog { return r.tap.in })})
	} else {
		stages = append(stages, stage{"udpio.wire_ms", tapAt(func(r *receiver) *frameLog { return r.tap.in })})
	}
	stages = append(stages,
		stage{"session.playout_ms", nil}, // ends at OnCloud entry
		stage{"render.splat_ms", nil})    // ends when Render returns

	durs := map[string][]float64{}
	var sumStages, sumE2E float64
	classLat := make([][]float64, len(p.recvs))
	nacked, repaired, outOfOrder := 0, 0, 0
	origin := p.offers[0].due
	for ri, r := range p.recvs {
		outs, late, _ := p.outcomes(r)
		outOfOrder += late
		for i, o := range outs {
			if !o.fresh {
				continue
			}
			seq := uint32(warmFrames + i)
			rung, ok := r.tap.in.rungOf(seq)
			if !ok {
				res.problems = append(res.problems, fmt.Sprintf("receiver %d displayed seq %d its tap never saw complete", r.class, seq))
				continue
			}
			k := frameKey{seq, rung}
			classLat[ri] = append(classLat[ri], ms(o.latency))
			sumE2E += ms(o.latency)
			trace := uint64(seq)*16 + uint64(ri)
			res.spans = append(res.spans, span{trace, "frame", "", ms(p.offers[i].due.Sub(origin)), ms(o.display.done.Sub(origin))})
			prev := p.offers[i].due
			for _, st := range stages {
				end := o.display.done
				switch {
				case st.at != nil:
					end, ok = st.at(r, k)
				case st.name == "session.playout_ms":
					end = o.display.entry
				}
				if !ok {
					break // boundary missed: the frame's stage sum falls short and reconcile_pct shows it
				}
				d := ms(end.Sub(prev))
				durs[st.name] = append(durs[st.name], d)
				sumStages += d
				res.spans = append(res.spans, span{trace, st.name, "frame", ms(prev.Sub(origin)), ms(end.Sub(origin))})
				prev = end
			}
		}
		// A frame the receiver NACKed is repaired if it was still displayed fresh.
		for i, o := range outs {
			if r.tap.any.nacked[uint32(warmFrames+i)] {
				nacked++
				if o.fresh {
					repaired++
				}
			}
		}
	}
	for _, st := range stages {
		res.setPcts(st.name, durs[st.name], 50, 95)
	}
	if sumE2E > 0 {
		res.set("bench.reconcile_pct", 100*abs(sumStages-sumE2E)/sumE2E, len(durs["render.splat_ms"]))
	}
	if res.metrics["bench.reconcile_pct"] > 1 {
		res.problems = append(res.problems, fmt.Sprintf("boundary stages sum to %.1f ms of %.1f ms end to end", sumStages, sumE2E))
	}
	if relayed {
		for i, name := range []string{"fast", "mid", "slow"} {
			res.set("relaycore.class_"+name+".e2e_p50_ms", median(classLat[i]), len(classLat[i]))
		}
	}

	res.setPcts("bench.gen_late_ms", p.genLate(), 99)

	c := p.counters
	for _, name := range []string{
		"session.send_pkts", "session.send_bytes", "session.pace_drops", "session.retx_sent",
		"session.nacks_sent", "session.plis_sent", "session.concealed_frames", "session.jitter_skipped_frames",
		"relaycore.media_pkts", "relaycore.enqueued", "relaycore.sent", "relaycore.dropped", "relaycore.max_depth",
		"relaycore.retx_hits", "relaycore.retx_misses", "relaycore.rung_switches", "relaycore.pli_forwarded",
		"relaycore.subs_on_expected_rung", "relaycore.stolen_queues", "relaycore.pool_live_after_close",
		"udpio.truncated", "bench.sink_delivered_ratio",
	} {
		res.set(name, c[name], 1)
	}
	if c["recv_pkts"] > 0 {
		res.set("transport.nack_per_kpkt", 1000*c["session.nacks_sent"]/c["recv_pkts"], int(c["recv_pkts"]))
	}
	res.set("session.out_of_order_frames", float64(outOfOrder), n*len(p.recvs))
	if nacked > 0 {
		res.set("transport.repair_ratio", float64(repaired)/float64(nacked), nacked)
	}
	if c["wr_pkts"] > 0 {
		res.set("udpio.write_syscalls_per_pkt", c["wr_sys"]/c["wr_pkts"], int(c["wr_pkts"]))
	}
	if c["rd_pkts"] > 0 {
		res.set("udpio.read_syscalls_per_pkt", c["rd_sys"]/c["rd_pkts"], int(c["rd_pkts"]))
	}
	p.usage.report(res, n)
	res.set("bench.setup_construct_ms", ms(p.construct), 1)
	res.set("bench.setup_warmup_s", p.warmup.Seconds(), 1)
	res.problems = append(res.problems, p.problems...)
}

// report fills the proc.* metrics from a usage delta over n frames.
func (u procUsage) report(res *result, n int) {
	f := float64(n)
	res.set("proc.cpu_user_ms_per_frame", ms(u.user)/f, n)
	res.set("proc.cpu_sys_ms_per_frame", ms(u.sys)/f, n)
	res.set("proc.allocs_per_frame", float64(u.mallocs)/f, n)
	res.set("proc.alloc_bytes_per_frame", float64(u.allocBytes)/f, n)
	res.set("proc.gc_pause_ms", ms(u.gcPause), n)
	res.set("proc.rss_peak_mb", float64(u.maxRSSKB)/1024, 1)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
