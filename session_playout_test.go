package livo

import (
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"livo/internal/netem"
	"livo/internal/relaycore"
	"livo/internal/scene"
	"livo/internal/transport"
)

// memNet is an in-memory datagram network for session tests: conns address
// each other by name, every conn's outbound traffic can be delayed and
// filtered, and delivery to one conn keeps the order packets were sent in.
type memNet struct {
	mu    sync.Mutex
	conns map[string]*memConn
}

type memPkt struct {
	b    []byte
	from net.Addr
	at   time.Time // when it reaches the destination's socket
}

// memConn is one endpoint. delay and drop apply to what it sends and must be
// set before traffic starts.
type memConn struct {
	net   *memNet
	addr  *net.UDPAddr
	delay time.Duration
	drop  func(b []byte) bool

	queue chan memPkt // in flight towards this conn, in send order
	inbox chan memPkt // arrived

	mu       sync.Mutex
	deadline time.Time
	dlWake   chan struct{} // closed and replaced on SetReadDeadline
	closed   chan struct{}
	once     sync.Once
}

type memTimeout struct{}

func (memTimeout) Error() string   { return "i/o timeout" }
func (memTimeout) Timeout() bool   { return true }
func (memTimeout) Temporary() bool { return true }

func newMemNet() *memNet { return &memNet{conns: map[string]*memConn{}} }

// listen adds a conn on its own port.
func (n *memNet) listen(t testing.TB) *memConn {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := &memConn{
		net:    n,
		addr:   &net.UDPAddr{IP: net.IPv4(10, 9, 0, 1), Port: 5000 + len(n.conns)},
		queue:  make(chan memPkt, 1<<14), // a few seconds of media: senders never block
		inbox:  make(chan memPkt, 1<<14),
		dlWake: make(chan struct{}),
		closed: make(chan struct{}),
	}
	n.conns[c.addr.String()] = c
	go c.deliver()
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// deliver moves packets from flight to the socket when their time comes.
func (c *memConn) deliver() {
	for {
		select {
		case <-c.closed:
			return
		case p := <-c.queue:
			if d := time.Until(p.at); d > 0 {
				select {
				case <-c.closed:
					return
				case <-time.After(d):
				}
			}
			select {
			case c.inbox <- p:
			case <-c.closed:
				return
			}
		}
	}
}

func (c *memConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	c.net.mu.Lock()
	dst := c.net.conns[addr.String()]
	c.net.mu.Unlock()
	if dst == nil || (c.drop != nil && c.drop(b)) {
		return len(b), nil
	}
	select {
	case dst.queue <- memPkt{append([]byte(nil), b...), c.addr, time.Now().Add(c.delay)}:
	case <-dst.closed:
	}
	return len(b), nil
}

func (c *memConn) ReadFrom(p []byte) (int, net.Addr, error) {
	for {
		c.mu.Lock()
		dl, wake := c.deadline, c.dlWake
		c.mu.Unlock()
		var timeout <-chan time.Time
		stop := func() bool { return false }
		if !dl.IsZero() {
			d := time.Until(dl)
			if d <= 0 {
				return 0, nil, memTimeout{}
			}
			tm := time.NewTimer(d)
			timeout, stop = tm.C, tm.Stop
		}
		select {
		case pkt := <-c.inbox:
			stop()
			return copy(p, pkt.b), pkt.from, nil
		case <-timeout:
			return 0, nil, memTimeout{}
		case <-wake: // deadline changed while blocked: re-evaluate it
			stop()
		case <-c.closed:
			stop()
			return 0, nil, net.ErrClosed
		}
	}
}

// recv waits up to d for one datagram.
func (c *memConn) recv(d time.Duration) ([]byte, bool) {
	select {
	case p := <-c.inbox:
		return p.b, true
	case <-time.After(d):
		return nil, false
	}
}

func (c *memConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadline = t
	close(c.dlWake)
	c.dlWake = make(chan struct{})
	c.mu.Unlock()
	return nil
}

func (c *memConn) Close() error                     { c.once.Do(func() { close(c.closed) }); return nil }
func (c *memConn) LocalAddr() net.Addr              { return c.addr }
func (c *memConn) SetDeadline(t time.Time) error    { return c.SetReadDeadline(t) }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

// manyPacketCapture is a rig with enough pixels that each stream of a frame
// is several packets on every rung.
func manyPacketCapture() scene.CaptureConfig {
	c := testCapture()
	c.Cameras, c.Width, c.Height = 6, 96, 80
	return c
}

// sessionRun is what one streamed call produced at the receiver.
type sessionRun struct {
	latency []time.Duration // capture → OnCloud, per frame delivered
	stats   RecvStats
	dropped int // media packets the link lost
}

// callLog collects a receiver's OnCloud calls against the capture times.
type callLog struct {
	mu       sync.Mutex
	captured []time.Time
	latency  []time.Duration
}

func (l *callLog) capture(i int) {
	l.mu.Lock()
	l.captured[i] = time.Now()
	l.mu.Unlock()
}

func (l *callLog) onCloud(seq uint32, _ *PointCloud) {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if int(seq) < len(l.captured) && !l.captured[seq].IsZero() {
		l.latency = append(l.latency, now.Sub(l.captured[seq]))
	}
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// TestSessionLoopbackLatency: with nothing configured, a clean link plays
// frames as they complete — capture to OnCloud is encode, pacing, decode and
// reconstruction, with no fixed playout wait on top.
func TestSessionLoopbackLatency(t *testing.T) {
	// 10 fps: the figure is per frame, and under the race detector on one
	// core a frame's encode and decode do not fit in a 30 fps period.
	const frames, fps = 40, 10
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
	defer send.Close()
	recv, err := NewRecvSession(rConn, sConn.LocalAddr(), RecvSessionConfig{Receiver: ReceiverConfig{Array: v.Array}})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	log := &callLog{captured: make([]time.Time, frames)}
	recv.OnCloud = log.onCloud
	go recv.Run()

	start := time.Now()
	for i := 0; i < frames; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * time.Second / fps)))
		log.capture(i)
		if _, err := send.SendViews(v.Frame(i)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(300 * time.Millisecond)
	log.mu.Lock()
	defer log.mu.Unlock()
	st := recv.Stats()
	if len(log.latency) < frames*9/10 || st.Concealed != 0 || st.Color.Skipped+st.Depth.Skipped != 0 {
		t.Fatalf("clean link: %d of %d frames delivered, %+v", len(log.latency), frames, st)
	}
	p50 := median(log.latency)
	t.Logf("capture→OnCloud p50 %v over %d frames", p50, len(log.latency))
	if p50 >= 50*time.Millisecond {
		t.Fatalf("capture→OnCloud p50 = %v, want under 50 ms", p50)
	}
}

// recording is a clip encoded ahead of time and cut into small fragments, so
// that every frame is a dozen packets (a burst leaves holes to repair rather
// than taking whole frames) and replaying it costs the host only decoding.
type recording struct {
	array  CameraArray
	frames [][]transport.Packet // SendTimeUs left for the replay to stamp
}

// replayFPS leaves a core running the race detector time to decode between
// frames; loss, repair and playout work frame by frame and do not care.
const replayFPS = 15

func record(t *testing.T, frames int) *recording {
	t.Helper()
	v, err := scene.OpenVideo("band2", testCapture()) // dancers: delta frames with something in them
	if err != nil {
		t.Fatal(err)
	}
	// A short GOP: the scripted sender cannot answer a PLI, so an outage
	// lasts until the next periodic key frame.
	sender, err := NewSender(SenderConfig{Array: v.Array, ViewParams: DefaultViewParams(), GOP: 15})
	if err != nil {
		t.Fatal(err)
	}
	const fragBytes = 256
	rec := &recording{array: v.Array}
	for i := 0; i < frames; i++ {
		enc, err := sender.ProcessFrame(v.Frame(i), 4e6)
		if err != nil {
			t.Fatal(err)
		}
		var pkts []transport.Packet
		for _, st := range []struct {
			id  uint8
			key bool
			b   []byte
		}{{transport.StreamColor, enc.Color.Key, enc.Color.Data}, {transport.StreamDepth, enc.Depth.Key, enc.Depth.Data}} {
			n := (len(st.b) + fragBytes - 1) / fragBytes
			for f := 0; f < n; f++ {
				end := (f + 1) * fragBytes
				if end > len(st.b) {
					end = len(st.b)
				}
				pkts = append(pkts, transport.Packet{Stream: st.id, FrameSeq: enc.Seq, FragIndex: uint16(f), FragCount: uint16(n),
					Key: st.key, Payload: st.b[f*fragBytes : end]})
			}
		}
		rec.frames = append(rec.frames, pkts)
	}
	return rec
}

// replayCall plays rec at replayFPS to a RecvSession over a memNet link with
// oneWay delay in both directions and lossPct burst loss on the media: a
// Gilbert–Elliott schedule on first transmissions and an independent one on
// retransmissions, both seeded, so two calls lose the same packets. The
// scripted sender answers NACKs from the recording and echoes RTT probes.
func replayCall(t *testing.T, rec *recording, lossPct float64, oneWay time.Duration, seed int64, tweak func(*RecvSession)) sessionRun {
	t.Helper()
	nw := newMemNet()
	sConn, rConn := nw.listen(t), nw.listen(t)
	sConn.delay, rConn.delay = oneWay, oneWay

	var run sessionRun
	first := netem.NewChaos(netem.BurstyLossConfig(seed, lossPct/100))
	again := netem.NewChaos(netem.BurstyLossConfig(seed+1, lossPct/100))
	var linkMu sync.Mutex
	sendMedia := func(p *transport.Packet, retx bool) {
		linkMu.Lock()
		chain := first
		if retx {
			chain = again
		}
		lost := len(chain.Apply(nil)) == 0
		if lost {
			run.dropped++
		}
		linkMu.Unlock()
		if !lost {
			_, _ = sConn.WriteTo(append([]byte{mediaMagic}, p.Marshal()...), rConn.LocalAddr())
		}
	}

	recv, err := NewRecvSession(rConn, sConn.LocalAddr(), RecvSessionConfig{
		Receiver:       ReceiverConfig{Array: rec.array},
		InitialRateBps: 4e6, MinRateBps: 4e6, MaxRateBps: 4e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	if tweak != nil {
		tweak(recv)
	}
	log := &callLog{captured: make([]time.Time, len(rec.frames))}
	recv.OnCloud = log.onCloud
	go recv.Run()

	// The sender's reverse path: retransmit what is NACK-ed, echo probes.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 2048)
		for {
			n, _, err := sConn.ReadFrom(buf)
			if err != nil {
				return
			}
			switch buf[0] {
			case transport.FBPing:
				buf[0] = transport.FBPong
				_, _ = sConn.WriteTo(buf[:n], rConn.LocalAddr())
			case transport.FBNACK:
				stream, seq, frag, err := transport.UnmarshalNACK(buf[:n])
				if err != nil || int(seq) >= len(rec.frames) {
					continue
				}
				for i := range rec.frames[seq] {
					if p := &rec.frames[seq][i]; p.Stream == stream && p.FragIndex == frag {
						sendMedia(p, true)
					}
				}
			}
		}
	}()

	start := time.Now()
	for i, pkts := range rec.frames {
		time.Sleep(time.Until(start.Add(time.Duration(i) * time.Second / replayFPS)))
		log.capture(i)
		ts := uint64(time.Since(start) / time.Microsecond)
		for j := range pkts {
			pkts[j].SendTimeUs = ts
			sendMedia(&pkts[j], false)
		}
	}
	time.Sleep(2*oneWay + 400*time.Millisecond) // playout, repair rounds and the skip deadline
	_ = sConn.Close()
	wg.Wait()
	log.mu.Lock()
	defer log.mu.Unlock()
	run.latency, run.stats = log.latency, recv.Stats()
	return run
}

// TestSessionLossNoWorseThanFixedDelay: 2% burst loss and 20 ms each way.
// The adaptive playout target must not cost repairs: frames skipped or
// concealed stay at or below a reference run of the same loss schedule with
// the target pinned at the paper's fixed 100 ms — while frames arrive sooner.
func TestSessionLossNoWorseThanFixedDelay(t *testing.T) {
	const (
		frames = 100
		seed   = 21
		oneWay = 20 * time.Millisecond
	)
	rec := record(t, frames)
	failed := func(r sessionRun) int64 { return r.stats.Color.Skipped + r.stats.Depth.Skipped + r.stats.Concealed }

	fixed := replayCall(t, rec, 2, oneWay, seed, func(r *RecvSession) { r.playout.Floor = transport.MaxPlayoutDelay })
	adaptive := replayCall(t, rec, 2, oneWay, seed, nil)
	t.Logf("%d packets a frame", len(rec.frames[frames/2]))
	t.Logf("fixed 100 ms: link lost %d, NACKs %d, skipped+concealed %d, p50 %v", fixed.dropped, fixed.stats.NACKsSent, failed(fixed), median(fixed.latency))
	t.Logf("adaptive:     link lost %d, NACKs %d, skipped+concealed %d, p50 %v, RTT %.1f ms", adaptive.dropped, adaptive.stats.NACKsSent, failed(adaptive), median(adaptive.latency), adaptive.stats.RTT*1e3)

	if fixed.dropped < 20 || adaptive.dropped < 20 || adaptive.stats.NACKsSent < 10 {
		t.Fatalf("vacuous: the link lost %d and %d packets, %d NACKs", fixed.dropped, adaptive.dropped, adaptive.stats.NACKsSent)
	}
	if got, ref := failed(adaptive), failed(fixed); got > ref {
		t.Fatalf("adaptive playout skipped or concealed %d frames, the fixed-delay reference %d", got, ref)
	}
	if a, f := median(adaptive.latency), median(fixed.latency); a >= f {
		t.Fatalf("adaptive p50 %v is not below the fixed-delay reference's %v", a, f)
	}
	if rtt := adaptive.stats.RTT; rtt < oneWay.Seconds()*2 {
		t.Fatalf("RTT = %.1f ms on a link with %v each way", rtt*1e3, oneWay)
	}
}

// frameRung names one rung's encoding of one frame.
type frameRung struct {
	seq  uint32
	rung uint8
}

// wirePkt is one media datagram as the sender put it on the wire.
type wirePkt struct {
	b    []byte
	tail bool // the last of several fragments
}

// ladderWires encodes frames of v (dancers: delta frames with something in
// them, on every rung) with a ladder SendSession aimed at relay, a stand-in
// for the relay on nw, and collects every frame's packets there per rung.
func ladderWires(t *testing.T, nw *memNet, relay *memConn, frames, gop int) (*scene.Video, map[frameRung][]wirePkt) {
	t.Helper()
	v, err := scene.OpenVideo("band2", manyPacketCapture())
	if err != nil {
		t.Fatal(err)
	}
	send, err := NewSendSession(nw.listen(t), relay.LocalAddr(), SendSessionConfig{
		Sender: SenderConfig{Array: v.Array, ViewParams: DefaultViewParams(), Ladder: true, GOP: gop},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	for i := 0; i < frames; i++ {
		if _, err := send.SendViews(v.Frame(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := int(send.Stats().Packets)
	wires := map[frameRung][]wirePkt{}
	for got := 0; got < want; got++ {
		b, ok := relay.recv(5 * time.Second)
		if !ok {
			t.Fatalf("collected %d of %d packets", got, want)
		}
		p, err := transport.Unmarshal(b[1:])
		if err != nil {
			t.Fatal(err)
		}
		k := frameRung{p.FrameSeq, p.Rung}
		wires[k] = append(wires[k], wirePkt{b, p.FragCount > 1 && p.FragIndex == p.FragCount-1})
	}
	return v, wires
}

// TestSessionRungSwitchKeepsOrder: a relay moving a subscriber between rungs
// sends it the new rung from a key frame on, and around that boundary the two
// rungs' packets interleave. Frames must still come out in sequence: the old
// rung's last frame, though it completes after the new rung's key frame,
// leaves first.
func TestSessionRungSwitchKeepsOrder(t *testing.T) {
	const (
		frames = 24
		gop    = 6
	)
	nw := newMemNet()
	relay, rConn := nw.listen(t), nw.listen(t)
	v, wires := ladderWires(t, nw, relay, frames, gop)

	recv, err := NewRecvSession(rConn, relay.LocalAddr(), RecvSessionConfig{Receiver: ReceiverConfig{Array: v.Array}})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	var mu sync.Mutex
	var seqs []uint32
	recv.OnCloud = func(seq uint32, _ *PointCloud) {
		mu.Lock()
		seqs = append(seqs, seq)
		mu.Unlock()
	}
	go recv.Run()

	// Rung 0 → 1 → 0, switching at key frames. The frame before each switch
	// has its streams' last fragments held back (a loss, repaired late) until
	// the whole of the key frame that follows it has arrived.
	rungOf := func(seq int) uint8 {
		if seq >= gop && seq < 3*gop {
			return 1
		}
		return 0
	}
	deliver := func(ws []wirePkt, tails bool) (n int) {
		for _, w := range ws {
			if w.tail == tails {
				_, _ = relay.WriteTo(w.b, rConn.LocalAddr())
				n++
			}
		}
		return n
	}
	for seq := 0; seq < frames; seq++ {
		ws := wires[frameRung{uint32(seq), rungOf(seq)}]
		deliver(ws, false)
		if seq+1 < frames && rungOf(seq+1) != rungOf(seq) {
			next := wires[frameRung{uint32(seq + 1), rungOf(seq + 1)}]
			deliver(next, false)
			deliver(next, true)
			time.Sleep(5 * time.Millisecond)
			seq++
			if deliver(ws, true) == 0 {
				t.Fatalf("vacuous: frame %d has no stream of several fragments to hold one back from", seq-1)
			}
		} else {
			deliver(ws, true)
		}
		time.Sleep(10 * time.Millisecond)
	}

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(seqs)
		mu.Unlock()
		if n >= frames {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seqs) != frames {
		t.Fatalf("%d of %d frames delivered: %v", len(seqs), frames, seqs)
	}
	for i, s := range seqs {
		if s != uint32(i) {
			t.Fatalf("OnCloud order %v: position %d is frame %d", seqs, i, s)
		}
	}
	if st := recv.Stats(); st.Concealed != 0 {
		t.Fatalf("%d frames concealed across clean rung switches", st.Concealed)
	}
}

// TestRecvStatsCountEveryRung: a subscriber the relay serves rung 2 alone
// reports that rung's frames in Stats().Color and .Depth, which sum each
// stream's rung buffers rather than reading rung 0's.
func TestRecvStatsCountEveryRung(t *testing.T) {
	const frames = 8
	nw := newMemNet()
	relay, rConn := nw.listen(t), nw.listen(t)
	v, wires := ladderWires(t, nw, relay, frames, 30)

	recv, err := NewRecvSession(rConn, relay.LocalAddr(), RecvSessionConfig{Receiver: ReceiverConfig{Array: v.Array}})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	var delivered atomic.Int64
	recv.OnCloud = func(uint32, *PointCloud) { delivered.Add(1) }
	go recv.Run()
	for seq := 0; seq < frames; seq++ {
		for _, w := range wires[frameRung{uint32(seq), 2}] {
			_, _ = relay.WriteTo(w.b, rConn.LocalAddr())
		}
	}
	for deadline := time.Now().Add(3 * time.Second); delivered.Load() < frames && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	st := recv.Stats()
	if n := delivered.Load(); n != frames || st.Color.Delivered != n || st.Depth.Delivered != n || st.Color.Pending+st.Depth.Pending != 0 {
		t.Fatalf("%d of %d rung-2 frames delivered, stats color %+v depth %+v", n, frames, st.Color, st.Depth)
	}
}

// TestRelayPingAnsweredToPingerOnly: a subscriber's RTT probe is echoed by
// the relay to that subscriber and goes nowhere else — not to the sender,
// and not (as the sender's echo once did) to the other subscribers.
func TestRelayPingAnsweredToPingerOnly(t *testing.T) {
	nw := newMemNet()
	relayConn, sender := nw.listen(t), nw.listen(t)
	relay := NewRelayGroup([]net.PacketConn{relayConn}, sender.LocalAddr(), relaycore.Config{})
	subs := make([]*memConn, 8)
	for i := range subs {
		subs[i] = nw.listen(t)
		relay.Subscribe(subs[i].LocalAddr())
	}
	go relay.Run()
	defer relay.Close()

	const pinger = 3
	ping := marshalPing(12.5, transport.FBPing)
	_, _ = subs[pinger].WriteTo(ping, relayConn.LocalAddr())
	pong, ok := subs[pinger].recv(2 * time.Second)
	if !ok {
		t.Fatal("no pong came back to the pinger")
	}
	if t0, err := unmarshalPing(pong); err != nil || pong[0] != transport.FBPong || t0 != 12.5 {
		t.Fatalf("pong = %x, want the ping's timestamp under the pong type", pong)
	}
	// A sender that still echoes (or probes) must not reach anyone either.
	_, _ = sender.WriteTo(marshalPing(12.5, transport.FBPong), relayConn.LocalAddr())
	_, _ = sender.WriteTo(marshalPing(1, transport.FBPing), relayConn.LocalAddr())
	// Media sent after them arrives after them: once it is through, anything
	// the probes caused would be too.
	media := append([]byte{mediaMagic}, transport.Packetize(transport.StreamColor, 0, true, 0, []byte("frame"))[0].Marshal()...)
	_, _ = sender.WriteTo(media, relayConn.LocalAddr())
	for i, s := range subs {
		b, ok := s.recv(2 * time.Second)
		if !ok || b[0] != mediaMagic {
			t.Fatalf("subscriber %d: first packet after the ping = %x (%v), want the media packet", i, b, ok)
		}
		if extra, ok := s.recv(20 * time.Millisecond); ok {
			t.Fatalf("subscriber %d got a second packet: %x", i, extra)
		}
	}
	if b, ok := sender.recv(20 * time.Millisecond); ok {
		t.Fatalf("the sender was sent %x", b)
	}
	if st := relay.Stats(); st.MediaPackets != 1 {
		t.Fatalf("relay routed %d packets as media, want 1", st.MediaPackets)
	}
}
