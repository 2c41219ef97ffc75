package frametrace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// stampChain writes a full synthetic pipeline for frame seq across three
// ledgers on one clock: every hop lands stepNs after the previous one.
// Encode stamps color then depth and decode stamps depth then color, so
// the pair max behind the encode and decode stages is taken from each side
// once.
func stampChain(send, relay, recv *Ledger, seq uint32, baseNs, stepNs int64) {
	t := baseNs
	next := func() int64 { t += stepNs; return t }
	send.Stamp(HopCapture, 0, seq, NoSub, t)
	send.Stamp(HopCull, 0, seq, NoSub, next())
	send.Stamp(HopTile, 0, seq, NoSub, next())
	send.Stamp(HopEncodeColor, 0, seq, NoSub, next())
	send.Stamp(HopEncodeDepth, 0, seq, NoSub, next())
	send.Stamp(HopPacketize, 0, seq, NoSub, next())
	relay.Stamp(HopRelayIngest, 1, seq, NoSub, next())
	relay.Stamp(HopShardRoute, 1, seq, NoSub, next())
	relay.Stamp(HopSubEnqueue, 1, seq, 0, next())
	relay.Stamp(HopSubDrain, 1, seq, 0, next())
	recv.Stamp(HopWire, 1, seq, NoSub, next())
	recv.Stamp(HopJitter, 1, seq, NoSub, next())
	recv.Stamp(HopDecodeDepth, 0, seq, NoSub, next())
	recv.Stamp(HopDecodeColor, 0, seq, NoSub, next())
	recv.Stamp(HopReconstruct, 0, seq, NoSub, next())
}

// TestMergeDecompose runs a synthetic 3-ledger pipeline through the
// collector and checks the merged timelines, the stage decomposition,
// and the telescoping reconciliation.
func TestMergeDecompose(t *testing.T) {
	send := NewLedger(1024)
	relay := NewLedger(1024)
	recv := NewLedger(1024)
	const frames = 50
	const step = int64(1e6) // 1 ms per hop
	for i := 0; i < frames; i++ {
		stampChain(send, relay, recv, uint32(i), int64(i)*40e6, step)
	}

	c := NewCollector()
	c.Add(send)
	c.Add(relay)
	c.Add(recv)
	tls := c.Merge(0)
	if len(tls) != frames {
		t.Fatalf("merged %d timelines, want %d", len(tls), frames)
	}
	tl := &tls[0]
	cap0, okC := tl.Get(HopCapture)
	rec, okR := tl.Get(HopReconstruct)
	if !okC || !okR {
		t.Fatal("capture/reconstruct missing after merge")
	}
	if want := int64(14) * step; rec-cap0 != want {
		t.Fatalf("e2e for frame 0: got %d ns, want %d", rec-cap0, want)
	}

	rep := Decompose(tls)
	if rep.Frames != frames || rep.Complete != frames {
		t.Fatalf("frames=%d complete=%d, want %d/%d", rep.Frames, rep.Complete, frames, frames)
	}
	if len(rep.Stages) != len(Stages) {
		t.Fatalf("got %d stages, want %d", len(rep.Stages), len(Stages))
	}
	// Every chain gap is one step except encode (tile→max encode = 2
	// steps, the later being depth) and decode (jitter→max decode = 2
	// steps, the later being color).
	for _, st := range rep.Stages {
		want := float64(step) / 1e6
		if st.Name == "encode" || st.Name == "decode" {
			want *= 2
		}
		if st.Count != frames {
			t.Fatalf("stage %s count=%d, want %d", st.Name, st.Count, frames)
		}
		if math.Abs(st.P50Ms-want) > 1e-9 || math.Abs(st.MeanMs-want) > 1e-9 {
			t.Fatalf("stage %s: p50=%g mean=%g, want %g", st.Name, st.P50Ms, st.MeanMs, want)
		}
	}
	if want := float64(14*step) / 1e6; math.Abs(rep.EndToEnd.MeanMs-want) > 1e-9 {
		t.Fatalf("e2e mean: got %g, want %g", rep.EndToEnd.MeanMs, want)
	}
	if rep.ReconcilePct > 1e-9 {
		t.Fatalf("reconcile: %g%%, want ~0 (telescoping)", rep.ReconcilePct)
	}
}

// TestMergeSubFilter checks that per-subscriber stamps for other
// subscribers are excluded from a sub-filtered merge.
func TestMergeSubFilter(t *testing.T) {
	led := NewLedger(64)
	led.Stamp(HopSubEnqueue, 1, 7, 0, 100)
	led.Stamp(HopSubEnqueue, 1, 7, 3, 999) // other subscriber, later
	c := NewCollector()
	c.Add(led)
	tls := c.Merge(0)
	if len(tls) != 1 {
		t.Fatalf("got %d timelines", len(tls))
	}
	if tt, ok := tls[0].Get(HopSubEnqueue); !ok || tt != 100 {
		t.Fatalf("sub filter leaked: got %d", tt)
	}
	// Unfiltered merge keeps the max across subscribers.
	c2 := NewCollector()
	c2.Add(led)
	all := c2.Merge(NoSub)
	if tt, ok := all[0].Get(HopSubEnqueue); !ok || tt != 999 {
		t.Fatalf("unfiltered merge: got %d, want 999", tt)
	}
}

// TestIncompleteTimelines checks that partially-stamped frames still
// contribute to the stages they cover without polluting reconciliation.
func TestIncompleteTimelines(t *testing.T) {
	led := NewLedger(64)
	led.Stamp(HopCapture, 0, 1, NoSub, 0)
	led.Stamp(HopCull, 0, 1, NoSub, 0) // a zero-width stage
	led.Stamp(HopTile, 0, 1, NoSub, 1e6)
	led.Stamp(HopEncodeColor, 0, 1, NoSub, 2e6)
	led.Stamp(HopEncodeDepth, 0, 1, NoSub, 3e6)
	// no further hops: frame was dropped downstream
	c := NewCollector()
	c.Add(led)
	rep := Decompose(c.Merge(NoSub))
	if rep.Frames != 1 || rep.Complete != 0 {
		t.Fatalf("frames=%d complete=%d", rep.Frames, rep.Complete)
	}
	for i, want := range []float64{0, 1, 2} { // cull, tile, encode
		if st := rep.Stages[i]; st.Name != Stages[i].Name || st.Count != 1 || math.Abs(st.MeanMs-want) > 1e-9 {
			t.Fatalf("stage %d: %+v, want %s of %g ms", i, st, Stages[i].Name, want)
		}
	}
	if rep.EndToEnd.Count != 0 || rep.ReconcilePct != 0 {
		t.Fatalf("incomplete frame leaked into e2e: %+v", rep.EndToEnd)
	}
}

// TestJSONLAndHandlers checks the JSONL export is parseable and the
// /debugz handlers serve it.
func TestJSONLAndHandlers(t *testing.T) {
	send := NewLedger(64)
	relay := NewLedger(64)
	recv := NewLedger(64)
	for i := 0; i < 3; i++ {
		stampChain(send, relay, recv, uint32(i), int64(i)*40e6, 1e6)
	}
	c := NewCollector()
	c.Add(send)
	c.Add(relay)
	c.Add(recv)
	var buf bytes.Buffer
	if err := WriteTimelinesJSONL(&buf, c.Merge(0)); err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var obj struct {
			Seq   uint32           `json:"seq"`
			Hops  map[string]int64 `json:"hops"`
			E2EMs float64          `json:"e2e_ms"`
		}
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if len(obj.Hops) != NumHops {
			t.Fatalf("line %d: %d hops, want %d", lines, len(obj.Hops), NumHops)
		}
		if math.Abs(obj.E2EMs-14) > 1e-9 {
			t.Fatalf("line %d: e2e %g, want 14", lines, obj.E2EMs)
		}
		lines++
	}
	if lines != 3 {
		t.Fatalf("got %d lines, want 3", lines)
	}

	fh := httptest.NewRecorder()
	FramesHandler(send, relay, recv).ServeHTTP(fh, httptest.NewRequest("GET", "/debugz/frames?n=2&sub=0", nil))
	if fh.Code != 200 || strings.Count(fh.Body.String(), "\n") != 2 {
		t.Fatalf("frames handler: code=%d body=%q", fh.Code, fh.Body.String())
	}

	ring := NewEventRing(64)
	ring.Add(EvFrameDrop, 1, 42, 3, int64(DropKey))
	eh := httptest.NewRecorder()
	EventsHandler(ring).ServeHTTP(eh, httptest.NewRequest("GET", "/debugz/events", nil))
	if eh.Code != 200 || !strings.Contains(eh.Body.String(), "\"evict_key\"") {
		t.Fatalf("events handler: code=%d body=%q", eh.Code, eh.Body.String())
	}
}

// TestWriteEventsRungSwitch checks that /debugz/events decodes a rung
// switch's packed value into its old rung, new rung and REMB.
func TestWriteEventsRungSwitch(t *testing.T) {
	ring := NewEventRing(64)
	ring.Add(EvRungSwitch, 0, 9, 5, RungSwitchVal(0, 2, 1_500_000))
	var buf bytes.Buffer
	if err := WriteEventsJSONL(&buf, ring, 10); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Event   string `json:"event"`
		From    *int   `json:"from"`
		To      *int   `json:"to"`
		REMBBps *int64 `json:"remb_bps"`
		Sub     int32  `json:"sub"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("%v in %q", err, buf.String())
	}
	if got.Event != "rung_switch" || got.Sub != 5 || got.From == nil || *got.From != 0 ||
		got.To == nil || *got.To != 2 || got.REMBBps == nil || *got.REMBBps != 1_500_000 {
		t.Fatalf("rung switch written as %s", buf.String())
	}
}

// TestStagesHandlerIsDecompose checks that /debugz/stages serves exactly
// Decompose of the window /debugz/frames reads, for every ?sub= choice.
func TestStagesHandlerIsDecompose(t *testing.T) {
	send, relay, recv := NewLedger(1024), NewLedger(1024), NewLedger(1024)
	for i := 0; i < 40; i++ {
		base, step := int64(i)*40e6, int64(1e6)+int64(i%7)*1e5 // spread, so p50 ≠ p99
		stampChain(send, relay, recv, uint32(i), base, step)
		// A second subscriber, enqueued as soon as the shard reaches it.
		relay.Stamp(HopSubEnqueue, 1, uint32(i), 1, base+7*step)
		relay.Stamp(HopSubDrain, 1, uint32(i), 1, base+9*step)
	}
	h := StagesHandler(send, relay, recv)
	for _, q := range []struct {
		arg string
		sub int32
	}{{"", NoSub}, {"?sub=0", 0}, {"?sub=1", 1}} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", "/debugz/stages"+q.arg, nil))
		var got Report
		if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
			t.Fatalf("%q: %v in %s", q.arg, err, rr.Body.String())
		}
		c := NewCollector()
		c.Add(send)
		c.Add(relay)
		c.Add(recv)
		want := Decompose(c.Merge(q.sub))
		if !reflect.DeepEqual(got, want) || want.Complete != 40 {
			t.Fatalf("%q: handler served %+v, Decompose gives %+v", q.arg, got, want)
		}
	}
}
