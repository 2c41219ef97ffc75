package livo

import (
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"livo/internal/scene"
)

// lossyForwarder relays packets between two endpoints, injecting seeded
// faults into the media packets of the sender->receiver direction: drops,
// duplicates, and reordering (a held-back copy delivered after a delay).
// Zero-valued knobs disable their fault.
type lossyForwarder struct {
	conn         net.PacketConn
	sender       net.Addr
	receiver     net.Addr
	rate         float64 // drop probability
	dup          float64 // duplication probability
	reorder      float64 // reorder probability
	reorderDelay time.Duration
	rng          *rand.Rand
	mu           sync.Mutex
	dropped      int
	duplicated   int
	reordered    int
	done         chan struct{}
}

func (f *lossyForwarder) run() {
	buf := make([]byte, 65536)
	for {
		select {
		case <-f.done:
			return
		default:
		}
		_ = f.conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		n, from, err := f.conn.ReadFrom(buf)
		if err != nil {
			continue
		}
		if from.String() != f.sender.String() {
			_, _ = f.conn.WriteTo(buf[:n], f.sender)
			continue
		}
		media := n > 0 && buf[0] == mediaMagic
		f.mu.Lock()
		drop := media && f.rng.Float64() < f.rate
		duplicate := media && !drop && f.dup > 0 && f.rng.Float64() < f.dup
		delay := media && !drop && f.reorder > 0 && f.rng.Float64() < f.reorder
		switch {
		case drop:
			f.dropped++
		case duplicate:
			f.duplicated++
		}
		if delay {
			f.reordered++
		}
		f.mu.Unlock()
		if drop {
			continue
		}
		pkt := append([]byte(nil), buf[:n]...)
		if delay {
			// Held back past packets sent after it (the timer goroutine may
			// fire after shutdown; the failed write is harmless).
			time.AfterFunc(f.reorderDelay, func() { _, _ = f.conn.WriteTo(pkt, f.receiver) })
			continue
		}
		_, _ = f.conn.WriteTo(pkt, f.receiver)
		if duplicate {
			_, _ = f.conn.WriteTo(pkt, f.receiver)
		}
	}
}

// runFaultySession streams frames through a configured fault-injecting
// middlebox and returns the forwarder (for fault counts) and the number of
// frames the receiver reconstructed.
func runFaultySession(t *testing.T, frames int, fec bool, configure func(*lossyForwarder)) (*lossyForwarder, int) {
	t.Helper()
	v, err := scene.OpenVideo("office1", testCapture())
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
	sConn, fConn, rConn := mk(), mk(), mk()
	t.Cleanup(func() { sConn.Close(); fConn.Close(); rConn.Close() })

	fwd := &lossyForwarder{
		conn:     fConn,
		sender:   sConn.LocalAddr(),
		receiver: rConn.LocalAddr(),
		done:     make(chan struct{}),
	}
	configure(fwd)
	go fwd.run()
	t.Cleanup(func() { close(fwd.done) })

	send, err := NewSendSession(sConn, fConn.LocalAddr(), SendSessionConfig{
		Sender:    SenderConfig{Array: v.Array, ViewParams: DefaultViewParams()},
		EnableFEC: fec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	recv, err := NewRecvSession(rConn, fConn.LocalAddr(), RecvSessionConfig{
		Receiver: ReceiverConfig{Array: v.Array},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	var mu sync.Mutex
	clouds := 0
	recv.OnCloud = func(seq uint32, cloud *PointCloud) {
		mu.Lock()
		clouds++
		mu.Unlock()
	}
	viewer := SynthUserTrace("viewer", 5, 60, 30)
	start := time.Now()
	recv.PoseSource = func() Pose { return viewer.At(time.Since(start).Seconds()) }
	go recv.Run()

	for i := 0; i < frames; i++ {
		if _, err := send.SendViews(v.Frame(i)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(33 * time.Millisecond)
	}
	deadline := time.Now().Add(4 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := clouds
		mu.Unlock()
		if n >= frames*2/3 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	return fwd, clouds
}

// TestSessionSurvivesPacketLoss streams through a 10%-loss middlebox with
// FEC enabled: the receiver must still reconstruct most frames (parity
// repairs single losses; NACKs and PLI cover the rest, §A.1).
func TestSessionSurvivesPacketLoss(t *testing.T) {
	const frames = 30
	fwd, clouds := runFaultySession(t, frames, true, func(f *lossyForwarder) {
		f.rate = 0.10
		f.rng = rand.New(rand.NewSource(42))
	})
	fwd.mu.Lock()
	dropped := fwd.dropped
	fwd.mu.Unlock()
	t.Logf("middlebox dropped %d packets; receiver reconstructed %d/%d frames", dropped, clouds, frames)
	if dropped == 0 {
		t.Fatal("loss injector never fired; test is vacuous")
	}
	if clouds < frames*2/3 {
		t.Fatalf("only %d/%d frames survived 10%% loss", clouds, frames)
	}
}

// TestSessionSurvivesReorderDup mixes loss with duplication and reordering
// on a seeded schedule, with and without FEC: duplicates must be ignored,
// late packets must land in the jitter buffer or be skipped cleanly, and
// most frames must still reconstruct.
func TestSessionSurvivesReorderDup(t *testing.T) {
	for _, tc := range []struct {
		name string
		fec  bool
		seed int64
	}{
		{"FEC", true, 7},
		{"NoFEC", false, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const frames = 30
			fwd, clouds := runFaultySession(t, frames, tc.fec, func(f *lossyForwarder) {
				f.rate = 0.05
				f.dup = 0.10
				f.reorder = 0.15
				f.reorderDelay = 40 * time.Millisecond
				f.rng = rand.New(rand.NewSource(tc.seed))
			})
			fwd.mu.Lock()
			dropped, duplicated, reordered := fwd.dropped, fwd.duplicated, fwd.reordered
			fwd.mu.Unlock()
			t.Logf("dropped=%d duplicated=%d reordered=%d; reconstructed %d/%d frames",
				dropped, duplicated, reordered, clouds, frames)
			if dropped == 0 || duplicated == 0 || reordered == 0 {
				t.Fatalf("fault schedule vacuous: dropped=%d duplicated=%d reordered=%d",
					dropped, duplicated, reordered)
			}
			if clouds < frames*2/3 {
				t.Fatalf("only %d/%d frames survived reorder/dup schedule", clouds, frames)
			}
		})
	}
}
