package livo

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"livo/internal/frametrace"
	"livo/internal/relaycore"
	"livo/internal/scene"
	"livo/internal/telemetry"
	"livo/internal/udpio"
)

// TestSessionTraceReconciles drives the session-level stamp sites — the
// ones only SendSession, Relay and RecvSession own (packetize, relay
// ingest, wire, jitter) together with the core and relaycore ones — over
// loopback sockets, merges the three ledgers, and checks the decomposition
// the trace exists for: some frames carry every hop from capture to
// reconstruct, each stage's median is non-negative (no hop stamped out of
// order), and the per-frame stage sums reconcile with the measured
// end-to-end latency.
func TestSessionTraceReconciles(t *testing.T) {
	v, err := scene.OpenVideo("office1", testCapture())
	if err != nil {
		t.Fatal(err)
	}
	listen := func() *udpio.Socket {
		s, err := udpio.Listen("udp", "127.0.0.1:0", udpio.Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	sConn, relayConn, rConn := listen(), listen(), listen()
	ledSend := frametrace.NewLedger(1 << 12)
	ledRelay := frametrace.NewLedger(1 << 12)
	ledRecv := frametrace.NewLedger(1 << 12)
	reg := telemetry.NewRegistry()

	relay := NewRelayGroup([]net.PacketConn{relayConn}, sConn.LocalAddr(), relaycore.Config{Telemetry: reg, Trace: ledRelay})
	relay.Subscribe(rConn.LocalAddr())
	go relay.Run()
	defer relay.Close()

	send, err := NewSendSession(sConn, relayConn.LocalAddr(), SendSessionConfig{
		Sender: SenderConfig{Array: v.Array, ViewParams: DefaultViewParams(), Telemetry: reg, Trace: ledSend},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	recv, err := NewRecvSession(rConn, relayConn.LocalAddr(), RecvSessionConfig{
		Receiver: ReceiverConfig{Array: v.Array, Telemetry: reg, Trace: ledRecv},
	})
	if err != nil {
		t.Fatal(err)
	}
	var clouds atomic.Int64
	recv.OnCloud = func(uint32, *PointCloud) { clouds.Add(1) }
	go recv.Run()
	defer recv.Close()

	const frames = 20
	for i := 0; i < frames; i++ {
		if _, err := send.SendViews(v.Frame(i)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(33 * time.Millisecond)
	}
	for deadline := time.Now().Add(5 * time.Second); clouds.Load() < frames/2; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d frames reconstructed", clouds.Load(), frames)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// One process, one clock. The relay's only
	// subscriber has id 0.
	col := frametrace.NewCollector()
	col.Add(ledSend)
	col.Add(ledRelay)
	col.Add(ledRecv)
	rep := frametrace.Decompose(col.Merge(0))
	if rep.Complete == 0 {
		t.Fatalf("no frame of %d carries every capture→reconstruct hop: %+v", rep.Frames, rep.Stages)
	}
	for _, st := range rep.Stages {
		if st.Count == 0 || st.P50Ms < 0 {
			t.Errorf("stage %s: %d samples, p50 %.3f ms — a hop is missing or stamped out of order", st.Name, st.Count, st.P50Ms)
		}
	}
	if rep.ReconcilePct > 5 {
		t.Fatalf("stage sums %.3f ms vs end-to-end %.3f ms: %.2f%% apart, budget 5%%",
			rep.StageSumMeanMs, rep.EndToEnd.MeanMs, rep.ReconcilePct)
	}
	t.Logf("%d/%d frames complete, e2e p50 %.1f ms, reconcile %.3f%%", rep.Complete, rep.Frames, rep.EndToEnd.P50Ms, rep.ReconcilePct)
}
