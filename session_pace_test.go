package livo

import (
	"errors"
	"net"
	"testing"
	"time"

	"livo/internal/scene"
	"livo/internal/transport"
)

// serial is a packet's place in the pacer's schedule: its serialisation
// time at twice rate.
func serial(size int, rate float64) time.Duration {
	return time.Duration(float64(size) * 8 / (2 * rate) * float64(time.Second))
}

// pktID names one wire packet.
type pktID struct {
	seq  uint32
	frag uint16
}

// batchRecorder is a memConn whose WriteBatch reports every call's packets
// on calls instead of delivering them and, while gate is non-nil and not
// yet closed, blocks after reporting.
type batchRecorder struct {
	*memConn
	calls chan []pktID
	gate  chan struct{}
}

func newBatchRecorder(t *testing.T) *batchRecorder {
	// Deep enough that no test's WriteBatch calls ever wait on the reader.
	return &batchRecorder{memConn: newMemNet().listen(t), calls: make(chan []pktID, 4096)}
}

func (r *batchRecorder) WriteBatch(ps [][]byte, _ net.Addr) (int, error) {
	ids := make([]pktID, len(ps))
	for i, p := range ps {
		h, _ := transport.PeekMedia(p)
		ids[i] = pktID{h.Seq, h.Frag}
	}
	r.calls <- ids
	if r.gate != nil {
		<-r.gate
	}
	return len(ps), nil
}

// next waits for the next WriteBatch call.
func (r *batchRecorder) next(t *testing.T) []pktID {
	t.Helper()
	select {
	case ids := <-r.calls:
		return ids
	case <-time.After(10 * time.Second):
		t.Fatal("the pacer wrote nothing")
		return nil
	}
}

// pacedSession is a SendSession on conn whose frames tests hand straight to
// the pacer through enqueue.
func pacedSession(t *testing.T, conn net.PacketConn, rateBps float64) *SendSession {
	t.Helper()
	arr := NewCameraRing(4, 2.6, 1.5, 0.9, NewIntrinsics(64, 48, DegToRad(75)), 6)
	s, err := NewSendSession(conn, &net.UDPAddr{IP: net.IPv4(10, 9, 9, 9), Port: 9}, SendSessionConfig{
		Sender:         SenderConfig{Array: arr, ViewParams: DefaultViewParams()},
		InitialRateBps: rateBps,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// frameOf is frame seq as n full-size packets.
func frameOf(seq uint32, n int) []transport.Packet {
	return transport.Packetize(transport.StreamColor, seq, false, 0, make([]byte, n*transport.MTU))
}

// TestPaceFrameInOneBatch: after an idle gap, a frame that fits the credit
// leaves in one WriteBatch call, and frames queued behind each other come
// out in order.
func TestPaceFrameInOneBatch(t *testing.T) {
	const rate = 2e6
	rec := newBatchRecorder(t)
	s := pacedSession(t, rec, rate)
	fits := int(transport.PaceCredit / serial(1+transport.HeaderSize+transport.MTU, rate))
	if fits < 2 {
		t.Fatalf("vacuous: the credit holds %d packets at %v bps", fits, rate)
	}
	if err := s.enqueue(frameOf(0, fits)); err != nil {
		t.Fatal(err)
	}
	if got := rec.next(t); len(got) != fits {
		t.Fatalf("a %d-packet frame inside the credit left in a batch of %d", fits, len(got))
	}

	// Order across frames, whatever the batching.
	want := []pktID{}
	for seq := uint32(1); seq <= 8; seq++ {
		pkts := frameOf(seq, 1+int(seq)%3)
		for _, p := range pkts {
			want = append(want, pktID{p.FrameSeq, p.FragIndex})
		}
		if err := s.enqueue(pkts); err != nil {
			t.Fatal(err)
		}
	}
	var got []pktID
	for len(got) < len(want) {
		got = append(got, rec.next(t)...)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("packet %d on the wire is %+v, want %+v (order %v)", i, got[i], want[i], got)
		}
	}
}

// TestPaceBlockedConnDropsWholeFrames: while the conn is blocked, the queue
// fills and every frame after that is dropped whole, its packets counted in
// PaceDrops; the frames that were queued go out complete.
func TestPaceBlockedConnDropsWholeFrames(t *testing.T) {
	rec := newBatchRecorder(t)
	rec.gate = make(chan struct{})
	s := pacedSession(t, rec, 1e9)
	if err := s.enqueue(frameOf(0, 1)); err != nil {
		t.Fatal(err)
	}
	rec.next(t) // the pacer is now blocked writing frame 0

	queued := cap(s.paceQ)
	const extra = 6
	sizeOf := func(seq uint32) int { return 1 + int(seq)%4 }
	var dropped int64
	for seq := uint32(1); seq <= uint32(queued+extra); seq++ {
		if seq > uint32(queued) {
			dropped += int64(sizeOf(seq))
		}
		if err := s.enqueue(frameOf(seq, sizeOf(seq))); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().PaceDrops; got != dropped {
		t.Fatalf("PaceDrops = %d, want %d: the packets of the %d frames that found the queue full", got, dropped, extra)
	}

	// Unblock, collect the queued frames' packets, then send a marker frame:
	// once it is out, anything that was still to come would be too.
	close(rec.gate)
	frags := map[uint32]int{}
	for n := s.Stats().Packets - 1; n > 0; { // all but frame 0's packet
		for _, id := range rec.next(t) {
			frags[id.seq]++
			n--
		}
	}
	marker := uint32(queued + extra + 1)
	if err := s.enqueue(frameOf(marker, 1)); err != nil {
		t.Fatal(err)
	}
	for frags[marker] == 0 {
		for _, id := range rec.next(t) {
			frags[id.seq]++
		}
	}
	for seq := uint32(1); seq < marker; seq++ {
		want := sizeOf(seq)
		if seq > uint32(queued) {
			want = 0
		}
		if frags[seq] != want {
			t.Fatalf("frame %d: %d packets on the wire, want %d (queue %d frames)", seq, frags[seq], want, queued)
		}
	}
}

// TestPaceCloseStopsLoop: Close returns while the pacer is waiting out a
// long schedule, which means the loop has exited, and the session takes no
// more frames.
func TestPaceCloseStopsLoop(t *testing.T) {
	rec := newBatchRecorder(t)
	s := pacedSession(t, rec, 1e5) // a packet every ~50 ms at 2·rate
	if err := s.enqueue(frameOf(0, 20)); err != nil {
		t.Fatal(err)
	}
	rec.next(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.enqueue(frameOf(1, 1)); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("enqueue after Close = %v, want net.ErrClosed", err)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("Err after Close = %v", err)
	}
}

// sinkConn is a memConn that discards writes without copying them, so the
// pacer adds no allocations of its own.
type sinkConn struct{ *memConn }

func (sinkConn) WriteTo(b []byte, _ net.Addr) (int, error) { return len(b), nil }

// TestSendEnqueueAllocs: handing a frame to the pacer costs the same few
// allocations whether it is one packet or forty — one slab for the wire
// bytes and one slice of wires, not two per packet.
func TestSendEnqueueAllocs(t *testing.T) {
	s := pacedSession(t, sinkConn{newMemNet().listen(t)}, 1e10)
	allocs := func(n int) float64 {
		pkts := frameOf(0, n)
		seq := uint32(0)
		step := func() {
			seq++
			for i := range pkts {
				pkts[i].FrameSeq = seq
			}
			if err := s.enqueue(pkts); err != nil {
				t.Fatal(err)
			}
		}
		// Fill the retransmission history to its steady state first.
		for i := 0; i < 2*4096/n+1; i++ {
			step()
		}
		return testing.AllocsPerRun(200, step)
	}
	one, forty := allocs(1), allocs(40)
	t.Logf("enqueue: %.0f allocs for 1 packet, %.0f for 40", one, forty)
	if forty != one {
		t.Fatalf("enqueue allocates %.0f times for 40 packets and %.0f for 1", forty, one)
	}
}

// TestSessionCloseIdempotent: a second Close on either session is a no-op,
// not a close-of-closed-channel panic, and SendViews after Close returns an
// error instead of encoding into a queue nothing drains.
func TestSessionCloseIdempotent(t *testing.T) {
	v, err := scene.OpenVideo("office1", testCapture())
	if err != nil {
		t.Fatal(err)
	}
	nw := newMemNet()
	sConn, rConn := nw.listen(t), nw.listen(t)
	send, err := NewSendSession(sConn, rConn.LocalAddr(), SendSessionConfig{
		Sender: SenderConfig{Array: v.Array, ViewParams: DefaultViewParams()},
	})
	if err != nil {
		t.Fatal(err)
	}
	recv, err := NewRecvSession(rConn, sConn.LocalAddr(), RecvSessionConfig{Receiver: ReceiverConfig{Array: v.Array}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := send.Close(); err != nil {
			t.Fatalf("SendSession.Close #%d: %v", i+1, err)
		}
		if err := recv.Close(); err != nil {
			t.Fatalf("RecvSession.Close #%d: %v", i+1, err)
		}
	}
	if enc, err := send.SendViews(v.Frame(0)); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("SendViews after Close = (%v, %v), want net.ErrClosed", enc != nil, err)
	}
	if st := send.Stats(); st.Frames != 0 || st.Packets != 0 {
		t.Fatalf("a closed session took a frame: %+v", st)
	}
}
