package livo

import (
	"net"
	"sync"
	"testing"
	"time"

	"livo/internal/relaycore"
	"livo/internal/scene"
)

// TestRelayFanOut runs a sender through a relay to two receivers: both must
// reconstruct clouds, and the sender must adapt to the minimum REMB.
func TestRelayFanOut(t *testing.T) {
	v, err := scene.OpenVideo("toddler4", testCapture())
	if err != nil {
		t.Fatal(err)
	}
	mk := func() net.PacketConn {
		c, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	sConn, relayConn, r1Conn, r2Conn := mk(), mk(), mk(), mk()
	defer sConn.Close()
	defer relayConn.Close()
	defer r1Conn.Close()
	defer r2Conn.Close()

	relay := NewRelayGroup([]net.PacketConn{relayConn}, sConn.LocalAddr(), relaycore.Config{})
	relay.Subscribe(r1Conn.LocalAddr())
	relay.Subscribe(r2Conn.LocalAddr())
	go relay.Run()
	defer relay.Close()
	if relay.Subscribers() != 2 {
		t.Fatalf("subscribers = %d", relay.Subscribers())
	}

	send, err := NewSendSession(sConn, relayConn.LocalAddr(), SendSessionConfig{
		Sender: SenderConfig{Array: v.Array, ViewParams: DefaultViewParams()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	var mu sync.Mutex
	counts := map[string]int{}
	mkRecv := func(name string, conn net.PacketConn) *RecvSession {
		rs, err := NewRecvSession(conn, relayConn.LocalAddr(), RecvSessionConfig{
			Receiver: ReceiverConfig{Array: v.Array},
		})
		if err != nil {
			t.Fatal(err)
		}
		rs.OnCloud = func(seq uint32, cloud *PointCloud) {
			mu.Lock()
			counts[name]++
			mu.Unlock()
		}
		viewer := SynthUserTrace(name, int64(len(name)), 60, 30)
		start := time.Now()
		rs.PoseSource = func() Pose { return viewer.At(time.Since(start).Seconds()) }
		go rs.Run()
		return rs
	}
	r1 := mkRecv("r1", r1Conn)
	r2 := mkRecv("r2", r2Conn)
	defer r1.Close()
	defer r2.Close()

	for i := 0; i < 15; i++ {
		if _, err := send.SendViews(v.Frame(i)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(33 * time.Millisecond)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		ok := counts["r1"] >= 8 && counts["r2"] >= 8
		mu.Unlock()
		if ok {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if counts["r1"] < 8 || counts["r2"] < 8 {
		t.Fatalf("fan-out incomplete: %v", counts)
	}
}

// TestRelayUnsubscribe: removing a subscriber tears down its queue, evicts
// its REMB entry, and repoints the primary viewer to the oldest remaining
// subscriber.
func TestRelayUnsubscribe(t *testing.T) {
	c, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sender, _ := net.ResolveUDPAddr("udp", "127.0.0.1:1")
	s1, _ := net.ResolveUDPAddr("udp", "127.0.0.1:2001")
	s2, _ := net.ResolveUDPAddr("udp", "127.0.0.1:2002")
	r := NewRelayGroup([]net.PacketConn{c}, sender, relaycore.Config{})
	defer r.Close()

	r.Subscribe(s1)
	r.Subscribe(s2)
	if p := r.Primary(); p == nil || p.String() != s1.String() {
		t.Fatalf("primary = %v, want %v", p, s1)
	}
	if !r.Unsubscribe(s1) {
		t.Fatal("Unsubscribe(s1) = false, want true")
	}
	if r.Subscribers() != 1 {
		t.Fatalf("subscribers = %d, want 1", r.Subscribers())
	}
	if p := r.Primary(); p == nil || p.String() != s2.String() {
		t.Fatalf("primary = %v after unsubscribe, want repointed to %v", p, s2)
	}
	if r.Unsubscribe(s1) {
		t.Fatal("second Unsubscribe(s1) = true, want false")
	}
	if st := r.Stats(); st.Subscribers != 1 {
		t.Fatalf("stats subscribers = %d, want 1", st.Subscribers)
	}
}

func TestRelayDoubleClose(t *testing.T) {
	c, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addr, _ := net.ResolveUDPAddr("udp", "127.0.0.1:1")
	r := NewRelayGroup([]net.PacketConn{c}, addr, relaycore.Config{})
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Errorf("double close should be an idempotent no-op, got %v", err)
	}
}
