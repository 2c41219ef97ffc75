package livo

import (
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"livo/internal/scene"
)

// testCapture is a small rig for fast tests.
func testCapture() scene.CaptureConfig {
	return scene.CaptureConfig{
		Cameras: 4, Width: 64, Height: 48,
		HFov:       DegToRad(75),
		RingRadius: 2.6, RingHeight: 1.5, MaxRange: 6,
	}
}

func TestPublicAPISenderReceiver(t *testing.T) {
	v, err := scene.OpenVideo("office1", testCapture())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSender(SenderConfig{Array: v.Array, ViewParams: DefaultViewParams()})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiver(ReceiverConfig{Array: v.Array})
	if err != nil {
		t.Fatal(err)
	}
	s.ObservePose(0, LookAt(V3(0, 1.5, 2.2), V3(0, 0.9, 0), V3(0, 1, 0)))
	enc, err := s.ProcessFrame(v.Frame(0), 40e6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.PushColor(enc.Color); err != nil {
		t.Fatal(err)
	}
	pf, err := r.PushDepth(enc.Depth)
	if err != nil || pf == nil {
		t.Fatalf("pairing failed: %v", err)
	}
	cloud, err := r.Reconstruct(pf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cloud.Len() == 0 {
		t.Fatal("empty cloud")
	}
	// PointSSIM of a faithful reconstruction against ground truth.
	pos, cols, err := v.Array.PointsFromViews(v.Frame(0))
	if err != nil {
		t.Fatal(err)
	}
	gt := &PointCloud{Positions: pos, Colors: cols}
	ps := PointSSIM(gt, cloud)
	if ps.Geometry < 50 || ps.Color < 40 {
		t.Errorf("reconstruction PSSIM too low: %+v", ps)
	}
}

func TestCameraRingHelpers(t *testing.T) {
	in := NewIntrinsics(64, 48, DegToRad(90))
	arr := NewCameraRing(6, 2.0, 1.5, 0.9, in, 6)
	if arr.N() != 6 {
		t.Fatalf("N = %d", arr.N())
	}
	if math.Abs(DegToRad(180)-math.Pi) > 1e-12 {
		t.Error("DegToRad wrong")
	}
	f := NewFrustum(LookAt(V3(0, 1, -3), V3(0, 1, 0), V3(0, 1, 0)), DefaultViewParams())
	if !f.Contains(V3(0, 1, 0)) {
		t.Error("frustum should contain look-at target")
	}
}

func TestSynthUserTrace(t *testing.T) {
	u := SynthUserTrace("demo", 1, 5, 30)
	if u.Duration() < 4.5 {
		t.Errorf("duration = %v", u.Duration())
	}
}

// TestLiveSessionOverUDP runs a one-way live session over loopback UDP:
// a sender streaming rendered frames, a receiver reconstructing clouds and
// feeding back poses/REMB.
func TestLiveSessionOverUDP(t *testing.T) {
	v, err := scene.OpenVideo("toddler4", testCapture())
	if err != nil {
		t.Fatal(err)
	}
	sConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sConn.Close()
	rConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rConn.Close()

	send, err := NewSendSession(sConn, rConn.LocalAddr(), SendSessionConfig{
		Sender:         SenderConfig{Array: v.Array, ViewParams: DefaultViewParams()},
		InitialRateBps: 20e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	recv, err := NewRecvSession(rConn, sConn.LocalAddr(), RecvSessionConfig{
		Receiver: ReceiverConfig{Array: v.Array},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	var mu sync.Mutex
	var clouds int
	var lastLen int
	recv.OnCloud = func(seq uint32, cloud *PointCloud) {
		mu.Lock()
		clouds++
		lastLen = cloud.Len()
		mu.Unlock()
	}
	viewer := SynthUserTrace("viewer", 3, 10, 30)
	start := time.Now()
	recv.PoseSource = func() Pose { return viewer.At(time.Since(start).Seconds()) }
	go recv.Run()

	// Stream 20 frames at ~30 fps.
	for i := 0; i < 20; i++ {
		if _, err := send.SendViews(v.Frame(i)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(33 * time.Millisecond)
	}
	// Allow the jitter buffer to drain.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := clouds
		mu.Unlock()
		if n >= 10 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if clouds < 10 {
		t.Fatalf("only %d clouds reconstructed", clouds)
	}
	if lastLen == 0 {
		t.Fatal("last cloud empty")
	}
	// Pose feedback reached the sender: its predicted frustum should be
	// near the viewer, so culling keeps a sane fraction.
	if send.Rate() <= 0 {
		t.Error("rate feedback missing")
	}
}
