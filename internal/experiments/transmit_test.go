package experiments

import (
	"math"
	"reflect"
	"testing"

	"livo/internal/core"
	"livo/internal/geom"
	"livo/internal/netem"
	"livo/internal/trace"
	"livo/internal/transport"
)

// TestTransmitRepairsScriptedLoss: on a fixed link that drops the first copy
// of one fragment, the receiver NACKs it, the sender answers from its
// history over the same link, and the frame is released with the rest —
// no skip, no concealment, no PLI.
func TestTransmitRepairsScriptedLoss(t *testing.T) {
	q := chaosQuality()
	q.Frames = 6
	w, err := workload("office1", q)
	if err != nil {
		t.Fatal(err)
	}
	sender, err := core.NewSender(core.SenderConfig{Variant: core.LiVoNoCull, Array: w.Array(), ViewParams: geom.DefaultViewParams()})
	if err != nil {
		t.Fatal(err)
	}
	receiver, err := core.NewReceiver(core.ReceiverConfig{Array: w.Array()})
	if err != nil {
		t.Fatal(err)
	}
	tx := newTransmitter(netem.NewFixedLink(chaosLinkMbps), receiver, &transport.PlayoutEstimator{})
	lost := transport.NackRequest{Stream: transport.StreamDepth, FrameSeq: 2, FragIndex: 1}
	copies := 0 // times the lost fragment went on the wire
	tx.faults = func(wire []byte) []netem.Delivery {
		if p, err := transport.Unmarshal(wire); err == nil && !p.Parity &&
			(transport.NackRequest{Stream: p.Stream, FrameSeq: p.FrameSeq, FragIndex: p.FragIndex}) == lost {
			if copies++; copies == 1 {
				return nil
			}
		}
		return []netem.Delivery{{Payload: wire}}
	}
	var paired []uint32
	tx.onPair = func(pf *core.PairedFrame, _, _ float64) error {
		paired = append(paired, pf.Seq)
		return nil
	}
	budget := 0.85 * chaosLinkMbps * 1e6
	for i := 0; i < q.Frames; i++ {
		now := float64(i) / 30
		if err := tx.advance(now); err != nil {
			t.Fatal(err)
		}
		enc, err := sender.ProcessFrame(w.Views[i], budget)
		if err != nil {
			t.Fatal(err)
		}
		if enc.Seq == lost.FrameSeq && len(enc.Depth.Data) <= transport.MTU {
			t.Fatalf("vacuous: frame %d's depth is one fragment (%d bytes)", enc.Seq, len(enc.Depth.Data))
		}
		tx.send(now, enc.Seq, enc.Color, enc.Depth, budget)
	}
	if err := tx.advance(math.Inf(1)); err != nil {
		t.Fatal(err)
	}

	if copies != 2 {
		t.Errorf("the lost fragment went on the wire %d times, want the original and one answer", copies)
	}
	color, depth := tx.jb[0].Stats(), tx.jb[1].Stats()
	if color.Nacked != 0 || depth.Nacked != 1 {
		t.Errorf("NACK-ed colour %d, depth %d fragments; want 0 and 1", color.Nacked, depth.Nacked)
	}
	if color.Skipped != 0 || depth.Skipped != 0 || tx.concealed != 0 || tx.plis != 0 {
		t.Errorf("skipped %d+%d, concealed %d, PLIs %d; want none", color.Skipped, depth.Skipped, tx.concealed, tx.plis)
	}
	if want := []uint32{0, 1, 2, 3, 4, 5}; !reflect.DeepEqual(paired, want) {
		t.Errorf("paired %v, want %v", paired, want)
	}
}

// TestTable6Telescopes: in every run, Table 6's stages add up to its
// end-to-end latency — each is a mean over the same frames — and the jitter
// stage never exceeds the playout cap.
func TestTable6Telescopes(t *testing.T) {
	q := tinyQuality()
	w, err := workload("office1", q)
	if err != nil {
		t.Fatal(err)
	}
	for _, rc := range []RunConfig{
		{Scheme: SchemeLiVo, Net: trace.Trace2()},
		{Scheme: SchemeNoCull, Net: trace.Trace1()},
		{Scheme: SchemeLiVo, FixedBandwidthMbps: 30},
	} {
		rc.Workload, rc.User, rc.Seed = w, w.Users[0], 5
		r, err := Run(rc)
		if err != nil {
			t.Fatal(err)
		}
		l := r.Latency
		sum := l["sender"] + l["network"] + l["jitter"] + l["receiver"]
		t.Logf("%v on %s: sender %.1f + network %.1f + jitter %.1f + receiver %.1f = %.1f ms, e2e %.1f ms",
			rc.Scheme, r.Net, 1e3*l["sender"], 1e3*l["network"], 1e3*l["jitter"], 1e3*l["receiver"], 1e3*sum, 1e3*l["e2e"])
		if math.Abs(sum-l["e2e"]) > 1e-9 {
			t.Errorf("%v on %s: stages add up to %v s, e2e is %v s", rc.Scheme, r.Net, sum, l["e2e"])
		}
		if l["network"] <= 0 || l["jitter"] < 0 || l["jitter"] > transport.MaxPlayoutDelay+1e-9 {
			t.Errorf("%v on %s: network %v s, jitter %v s", rc.Scheme, r.Net, l["network"], l["jitter"])
		}
	}
}
