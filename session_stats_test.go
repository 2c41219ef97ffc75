package livo

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"livo/internal/scene"
	"livo/internal/telemetry"
)

var errPoisoned = errors.New("poisoned socket")

// faultConn wraps a real PacketConn and fails reads/writes on demand, so
// tests can poison a live session's socket mid-stream.
type faultConn struct {
	net.PacketConn
	failWrite atomic.Bool
	failRead  atomic.Bool
}

func (c *faultConn) WriteTo(b []byte, a net.Addr) (int, error) {
	if c.failWrite.Load() {
		return 0, errPoisoned
	}
	return c.PacketConn.WriteTo(b, a)
}

func (c *faultConn) ReadFrom(b []byte) (int, net.Addr, error) {
	if c.failRead.Load() {
		return 0, nil, errPoisoned
	}
	return c.PacketConn.ReadFrom(b)
}

// TestSendSessionErrPoisonedSocket proves a failing socket surfaces through
// Err()/Stats() instead of being silently swallowed by the pacer goroutine.
func TestSendSessionErrPoisonedSocket(t *testing.T) {
	v, err := scene.OpenVideo("office1", testCapture())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	peer, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	conn := &faultConn{PacketConn: raw}
	reg := telemetry.NewRegistry()
	s, err := NewSendSession(conn, peer.LocalAddr(), SendSessionConfig{
		Sender: SenderConfig{Array: v.Array, ViewParams: DefaultViewParams(), Telemetry: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, err := s.SendViews(v.Frame(0)); err != nil {
		t.Fatalf("healthy send failed: %v", err)
	}
	st := s.Stats()
	if st.Frames != 1 || st.Packets == 0 || st.Bytes == 0 {
		t.Fatalf("healthy stats wrong: %+v", st)
	}
	if st.Err != nil {
		t.Fatalf("unexpected early error: %v", st.Err)
	}

	conn.failWrite.Store(true)
	deadline := time.Now().Add(5 * time.Second)
	for s.Err() == nil && time.Now().Before(deadline) {
		_, _ = s.SendViews(v.Frame(0))
		time.Sleep(10 * time.Millisecond)
	}
	if err := s.Err(); !errors.Is(err, errPoisoned) {
		t.Fatalf("Err() = %v, want wrapped %v", err, errPoisoned)
	}
	if err := s.Stats().Err; !errors.Is(err, errPoisoned) {
		t.Fatalf("Stats().Err = %v, want wrapped %v", err, errPoisoned)
	}
	if _, err := s.SendViews(v.Frame(0)); !errors.Is(err, errPoisoned) {
		t.Fatalf("SendViews after poison = %v, want wrapped %v", err, errPoisoned)
	}
}

// TestRecvSessionErrPoisonedSocket proves a failing media socket terminates
// Run and surfaces through Err()/Stats().
func TestRecvSessionErrPoisonedSocket(t *testing.T) {
	v, err := scene.OpenVideo("office1", testCapture())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	peer, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	conn := &faultConn{PacketConn: raw}
	conn.failRead.Store(true)
	reg := telemetry.NewRegistry()
	r, err := NewRecvSession(conn, peer.LocalAddr(), RecvSessionConfig{
		Receiver: ReceiverConfig{Array: v.Array, Telemetry: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	go r.Run()

	deadline := time.Now().Add(5 * time.Second)
	for r.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if err := r.Err(); !errors.Is(err, errPoisoned) {
		t.Fatalf("Err() = %v, want wrapped %v", err, errPoisoned)
	}
	if err := r.Stats().Err; !errors.Is(err, errPoisoned) {
		t.Fatalf("Stats().Err = %v, want wrapped %v", err, errPoisoned)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}
