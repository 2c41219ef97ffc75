package livo

import (
	"errors"
	"math/rand"
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

func sized(n, size int) [][]byte {
	ws := make([][]byte, n)
	for i := range ws {
		ws[i] = make([]byte, size)
	}
	return ws
}

// TestPaceDue table-tests the pacer's schedule step: which packets leave at
// a wake-up, and when the next one is due.
func TestPaceDue(t *testing.T) {
	const (
		rate = 5e6
		size = 1250 // 1 ms apart at 2·rate
	)
	gap := serial(size, rate)
	inCredit := int(paceCredit/gap) + 1 // the schedule's first packet sits paceCredit back
	t0 := time.Unix(1000, 0)
	for _, tc := range []struct {
		name      string
		next, now time.Time
		pkts      int
		want      int
		wantAfter time.Time
	}{
		{"idle since start: a frame within the credit goes in one take",
			time.Time{}, t0, inCredit, inCredit, t0.Add(-paceCredit + time.Duration(inCredit)*gap)},
		{"idle for a second: no more credit than after a short gap",
			t0.Add(-time.Second), t0, 3 * inCredit, inCredit, t0.Add(-paceCredit + time.Duration(inCredit)*gap)},
		{"a stall longer than the credit is not a bigger burst",
			t0.Add(-200 * time.Millisecond), t0, 1000, inCredit, t0.Add(-paceCredit + time.Duration(inCredit)*gap)},
		{"inside the credit the schedule is kept, not reset",
			t0.Add(-2 * gap), t0, 10, 3, t0.Add(gap)},
		{"not yet due: nothing, and the schedule is unchanged",
			t0.Add(gap / 2), t0, 4, 0, t0.Add(gap / 2)},
		{"due exactly now",
			t0, t0, 4, 1, t0.Add(gap)},
	} {
		n, after := paceDue(tc.next, tc.now, rate, sized(tc.pkts, size))
		if n != tc.want || !after.Equal(tc.wantAfter) {
			t.Errorf("%s: took %d, next at %v; want %d, next at %v", tc.name, n, after.Sub(t0), tc.want, tc.wantAfter.Sub(t0))
		}
	}

	// A frame larger than the credit: after the first take the remainder
	// leaves one packet per serialisation time.
	frame := sized(inCredit+5, size)
	n, next := paceDue(time.Time{}, t0, rate, frame)
	if n != inCredit {
		t.Fatalf("first take %d packets, want %d", n, inCredit)
	}
	for rest := frame[n:]; len(rest) > 0; rest = rest[1:] {
		if k, at := paceDue(next, next.Add(-time.Nanosecond), rate, rest); k != 0 || !at.Equal(next) {
			t.Fatalf("%d packets left: %d sent a nanosecond early", len(rest), k)
		}
		var k int
		prev := next
		if k, next = paceDue(next, next, rate, rest); k != 1 || next.Sub(prev) != gap {
			t.Fatalf("%d packets left: took %d, then %v to the next; want 1, then %v", len(rest), k, next.Sub(prev), gap)
		}
	}
	// The rate floor keeps a zero or missing REMB from stalling the pacer.
	if _, at := paceDue(t0, t0, 0, sized(1, size)); at.Sub(t0) != serial(size, 1e5) {
		t.Fatalf("rate 0 spaces a packet %v, want the 100 kbps floor's %v", at.Sub(t0), serial(size, 1e5))
	}
}

// TestPaceRateBound runs the schedule step on a virtual clock over frames
// of random size arriving at random gaps, with wake-ups late by up to
// 50 ms: in every window, from the start of any wake-up's take to the last
// packet of any later one, the bytes sent stay within 2·rate·window plus
// the credit (and the packet that ends the window), so neither an idle gap
// nor a late timer buys a bigger burst. Every packet is sent.
func TestPaceRateBound(t *testing.T) {
	const rate = 2e6
	rng := rand.New(rand.NewSource(7))
	t0 := time.Unix(1000, 0)
	now, arrive := t0, t0
	var next time.Time
	// Bytes are counted as serialisation time at 2·rate. floor is the
	// least, over the takes so far, of what had been sent before the take
	// minus when it began.
	var sent, total time.Duration
	floor := time.Duration(1<<63 - 1)
	for f := 0; f < 1000; f++ {
		arrive = arrive.Add(time.Duration(rng.Int63n(int64(80 * time.Millisecond))))
		if now.Before(arrive) {
			now = arrive
		}
		wires := make([][]byte, 1+rng.Intn(30))
		for i := range wires {
			wires[i] = make([]byte, 100+rng.Intn(1200))
			total += serial(len(wires[i]), rate)
		}
		for len(wires) > 0 {
			var n int
			n, next = paceDue(next, now, rate, wires)
			if n == 0 {
				// The timer fires at next or up to 50 ms later.
				now = next.Add(time.Duration(rng.Int63n(int64(50 * time.Millisecond))))
				continue
			}
			if d := sent - now.Sub(t0); d < floor {
				floor = d
			}
			for _, w := range wires[:n-1] {
				sent += serial(len(w), rate)
			}
			if over := sent - now.Sub(t0) - floor - paceCredit; over > 0 {
				t.Fatalf("frame %d: a window ending %v in sent %v more than 2·rate·window + credit", f, now.Sub(t0), over)
			}
			sent += serial(len(wires[n-1]), rate)
			wires = wires[n:]
		}
	}
	if sent != total {
		t.Fatalf("sent %v of %v", sent, total)
	}
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
	fits := int(paceCredit / serial(1+transport.HeaderSize+transport.MTU, rate))
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
