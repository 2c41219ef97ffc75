package transport

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"livo/internal/netem"
)

func TestPacketMarshalRoundTrip(t *testing.T) {
	f := func(stream uint8, seq uint32, idx, count uint16, key bool, ts uint64, payload []byte) bool {
		if count == 0 {
			count = 1
		}
		idx %= count
		if len(payload) > MTU {
			payload = payload[:MTU]
		}
		p := Packet{Stream: stream, FrameSeq: seq, FragIndex: idx, FragCount: count,
			Key: key, SendTimeUs: ts, Payload: payload}
		// AppendMarshal behind a prefix writes exactly Marshal's bytes.
		wire := p.AppendMarshal([]byte{MediaMagic})
		if len(wire) != 1+HeaderSize+len(payload) || wire[0] != MediaMagic || !bytes.Equal(wire[1:], p.Marshal()) {
			return false
		}
		got, err := Unmarshal(wire[1:])
		if err != nil {
			return false
		}
		return got.Stream == p.Stream && got.FrameSeq == p.FrameSeq &&
			got.FragIndex == p.FragIndex && got.FragCount == p.FragCount &&
			got.Key == p.Key && got.SendTimeUs == p.SendTimeUs &&
			bytes.Equal(got.Payload, p.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// The reverse path's two codecs.
	if got, err := UnmarshalREMB(AppendREMB(nil, 123.456e6)); err != nil || got != 123.456e6 {
		t.Errorf("remb = %v, %v", got, err)
	}
	stream, seq, frag, err := UnmarshalNACK(MarshalNACK(2, 0xDEADBEEF, 777))
	if err != nil || stream != 2 || seq != 0xDEADBEEF || frag != 777 {
		t.Errorf("nack = %d %d %d %v", stream, seq, frag, err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := UnmarshalREMB([]byte{FBREMB}); err == nil {
		t.Error("short REMB accepted")
	}
	if _, _, _, err := UnmarshalNACK([]byte{FBNACK, 0}); err == nil {
		t.Error("short NACK accepted")
	}
	if _, err := Unmarshal(nil); err == nil {
		t.Error("nil accepted")
	}
	if _, err := Unmarshal(make([]byte, 5)); err == nil {
		t.Error("short packet accepted")
	}
	// Truncated payload.
	p := Packet{Stream: 1, FragCount: 1, Payload: []byte{1, 2, 3}}
	b := p.Marshal()
	if _, err := Unmarshal(b[:len(b)-1]); err == nil {
		t.Error("truncated payload accepted")
	}
	// Bad fragment index.
	bad := Packet{Stream: 1, FragIndex: 5, FragCount: 2, Payload: []byte{1}}
	if _, err := Unmarshal(bad.Marshal()); err == nil {
		t.Error("bad fragment accepted")
	}
}

func TestPacketizeReassemble(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 3*MTU+100)
	rng.Read(data)
	pkts := Packetize(StreamDepth, 42, true, 12345, data)
	if len(pkts) != 4 {
		t.Fatalf("got %d packets", len(pkts))
	}
	var got []byte
	for i, p := range pkts {
		if p.FragIndex != uint16(i) || p.FragCount != 4 || p.FrameSeq != 42 || !p.Key {
			t.Fatalf("packet %d header wrong: %+v", i, p)
		}
		got = append(got, p.Payload...)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("reassembled data differs")
	}
	if Packetize(StreamColor, 1, false, 0, nil) != nil {
		t.Error("empty data should packetize to nil")
	}
}

func TestJitterBufferInOrderDelivery(t *testing.T) {
	jb := NewJitterBuffer()
	data := []byte("hello world, this is a frame")
	pkts := Packetize(StreamColor, 0, true, 0, append(data, make([]byte, 2*MTU)...))
	for _, p := range pkts[:len(pkts)-1] {
		jb.Push(p, 1.0)
	}
	// Not ready while a fragment is still to come.
	if out := jb.Pop(1.0); len(out) != 0 {
		t.Fatal("delivered an incomplete frame")
	}
	// With nothing to say the path jitters, a complete in-order frame is
	// played the moment its last fragment is in.
	jb.Push(pkts[len(pkts)-1], 1.004)
	out := jb.Pop(1.004)
	if len(out) != 1 {
		t.Fatalf("got %d frames", len(out))
	}
	if !bytes.Equal(out[0].Data[:len(data)], data) || out[0].FrameSeq != 0 || !out[0].Key {
		t.Fatal("frame content wrong")
	}
	if out[0].FirstArrival != 1.0 || out[0].LastArrival != 1.004 {
		t.Fatalf("arrivals %v, %v", out[0].FirstArrival, out[0].LastArrival)
	}
}

func TestJitterBufferReordersFrames(t *testing.T) {
	jb := NewJitterBuffer()
	frame := func(seq uint32, sentAt float64, data string) []Packet {
		return Packetize(StreamColor, seq, false, uint64(sentAt*1e6), append([]byte(data), make([]byte, MTU)...))
	}
	// Frame 1 overtakes frame 0: all of it arrives between frame 0's two
	// fragments. It is complete first and must still leave second.
	f0, f1 := frame(0, 0.5, "frame0"), frame(1, 0.533, "frame1")
	jb.Push(f0[0], 1.0)
	for _, p := range f1 {
		jb.Push(p, 1.01)
	}
	if out := jb.Pop(1.01); len(out) != 0 {
		t.Fatalf("frame %d released ahead of an incomplete earlier frame", out[0].FrameSeq)
	}
	jb.Push(f0[1], 1.02)
	// Frame 0 took 43 ms longer than frame 1 did, which is now the jitter the
	// buffer knows about: frame 1 is held that long past its own arrival.
	out := append(jb.Pop(1.02), jb.Pop(1.06)...)
	if len(out) != 2 {
		t.Fatalf("got %d frames", len(out))
	}
	if out[0].FrameSeq != 0 || out[1].FrameSeq != 1 {
		t.Fatalf("order: %d, %d", out[0].FrameSeq, out[1].FrameSeq)
	}
	// A whole frame arriving after a later one has been played is too late.
	for _, p := range frame(3, 0.6, "frame3") {
		jb.Push(p, 1.10)
	}
	if out := jb.Pop(1.2); len(out) != 1 || out[0].FrameSeq != 3 {
		t.Fatalf("frame 3 not released: %+v", out)
	}
	for _, p := range frame(2, 0.566, "frame2") {
		jb.Push(p, 1.21)
	}
	if jb.Stats().Pending != 0 || len(jb.Pop(1.5)) != 0 {
		t.Fatal("a frame older than one already played was accepted")
	}
}

func TestJitterBufferReordersFragments(t *testing.T) {
	jb := NewJitterBuffer()
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, 5*MTU)
	rng.Read(data)
	pkts := Packetize(StreamDepth, 7, false, 0, data)
	for _, i := range rng.Perm(len(pkts)) {
		jb.Push(pkts[i], 2.0)
	}
	out := jb.Pop(3.0)
	if len(out) != 1 || !bytes.Equal(out[0].Data, data) {
		t.Fatal("fragment reordering broke reassembly")
	}
}

func TestJitterBufferSkipsIncomplete(t *testing.T) {
	jb := NewJitterBuffer()
	pkts := Packetize(StreamColor, 0, false, 0, make([]byte, 3*MTU))
	// Lose fragment 1.
	jb.Push(pkts[0], 1.0)
	jb.Push(pkts[2], 1.0)
	// Frame 1 complete behind it.
	for _, p := range Packetize(StreamColor, 1, false, 0, []byte("ok")) {
		jb.Push(p, 1.01)
	}
	// Before the skip deadline, nothing is delivered (head-of-line).
	if out := jb.Pop(1.15); len(out) != 0 {
		t.Fatal("incomplete frame did not block")
	}
	// After the deadline, frame 0 is skipped and frame 1 delivered.
	out := jb.Pop(1.3)
	if len(out) != 1 || out[0].FrameSeq != 1 {
		t.Fatalf("skip failed: %+v", out)
	}
	if got := jb.Stats().Skipped; got != 1 {
		t.Errorf("Skipped = %d", got)
	}
	// Late fragment of the skipped frame is ignored.
	jb.Push(pkts[1], 1.4)
	if jb.Stats().Pending != 0 {
		t.Error("late fragment resurrected a skipped frame")
	}
}

func TestJitterBufferDuplicates(t *testing.T) {
	jb := NewJitterBuffer()
	pkts := Packetize(StreamColor, 0, false, 0, []byte("abc"))
	jb.Push(pkts[0], 1.0)
	jb.Push(pkts[0], 1.01) // duplicate
	out := jb.Pop(1.2)
	if len(out) != 1 || !bytes.Equal(out[0].Data, []byte("abc")) {
		t.Fatal("duplicate broke assembly")
	}
}

func TestNacks(t *testing.T) {
	jb := NewJitterBuffer()
	pkts := Packetize(StreamDepth, 3, false, 0, make([]byte, 4*MTU))
	jb.Push(pkts[0], 1.0)
	jb.Push(pkts[3], 1.001)
	// Too early to NACK.
	if n := jb.Nacks(1.005); len(n) != 0 {
		t.Fatalf("premature NACKs: %+v", n)
	}
	n := jb.Nacks(1.05)
	if len(n) != 2 {
		t.Fatalf("got %d NACKs, want 2", len(n))
	}
	if n[0].FragIndex != 1 || n[1].FragIndex != 2 || n[0].FrameSeq != 3 {
		t.Fatalf("NACKs: %+v", n)
	}
	// Each fragment NACK-ed once.
	if n := jb.Nacks(1.1); len(n) != 0 {
		t.Fatalf("repeated NACKs: %+v", n)
	}
	// Retransmission completes the frame.
	jb.Push(pkts[1], 1.12)
	jb.Push(pkts[2], 1.12)
	if out := jb.Pop(1.2); len(out) != 1 {
		t.Fatal("retransmitted frame not delivered")
	}
}

// TestRenacks: a fragment still missing renackAfter past its NACK (the
// retransmission itself was lost) is requested again.
func TestRenacks(t *testing.T) {
	jb := NewJitterBuffer()
	jb.skipAfter = 10 // keep the frame pending across re-NACK intervals
	pkts := Packetize(StreamColor, 5, false, 0, make([]byte, 3*MTU))
	jb.Push(pkts[0], 1.0)
	jb.Push(pkts[2], 1.001)
	if n := jb.Nacks(1.05); len(n) != 1 || n[0].FragIndex != 1 {
		t.Fatalf("first NACK round: %+v", n)
	}
	// Inside the retry interval: no repeat.
	if n := jb.Nacks(1.05 + jb.renackAfter - 0.01); len(n) != 0 {
		t.Fatalf("premature re-NACK: %+v", n)
	}
	// Retry interval elapsed, fragment still missing: re-requested.
	n := jb.Nacks(1.05 + jb.renackAfter)
	if len(n) != 1 || n[0].FragIndex != 1 || n[0].FrameSeq != 5 {
		t.Fatalf("re-NACK round: %+v", n)
	}
	if got := jb.Stats().Nacked; got != 2 {
		t.Fatalf("Nacked = %d, want 2", got)
	}
	// The second retransmission lands; frame delivers.
	jb.Push(pkts[1], 1.5)
	if out := jb.Pop(1.7); len(out) != 1 {
		t.Fatal("frame not delivered after re-NACK recovery")
	}
}

func TestGCCIncreasesWhenUnderused(t *testing.T) {
	g := NewGCC(10e6, 1e6, 500e6)
	// Plenty of capacity: constant one-way delay.
	for i := 0; i < 200; i++ {
		tm := float64(i) * 0.01
		g.OnArrival(tm, tm+0.02, 1200)
	}
	if g.Rate() <= 10e6 {
		t.Errorf("rate did not grow: %v", g.Rate())
	}
}

func TestGCCBacksOffOnQueueGrowth(t *testing.T) {
	g := NewGCC(100e6, 1e6, 500e6)
	// Queue building: delay grows steadily while receive rate is ~24 Mbps.
	for i := 0; i < 100; i++ {
		tm := float64(i) * 0.01
		owd := 0.02 + float64(i)*0.002 // +2 ms per packet
		g.OnArrival(tm, tm+owd, 3000)
	}
	if g.Rate() >= 100e6 {
		t.Errorf("rate did not back off: %v", g.Rate())
	}
	// Should land near the receive rate (3000 B / 10 ms = 2.4 Mbps).
	if g.Rate() > 10e6 {
		t.Errorf("rate %v still far above receive rate", g.Rate())
	}
}

// TestGCCFrameBursts: the sender stamps every packet of a frame with the
// frame's timestamp and may send the frame as one burst instead of spread
// at twice the rate. On a virtual clock at a constant 2 Mbps, 30 fps,
// neither arrival pattern may read as over-use over 10 s; with the queue
// growing 5 ms a frame, both must.
func TestGCCFrameBursts(t *testing.T) {
	const (
		rate, fps = 2e6, 30.0
		pktBytes  = 1200
	)
	perFrame := int(math.Ceil(rate / fps / 8 / pktBytes))
	backoffs := func(spread, buildUp float64) int {
		g := NewGCC(rate, 1e6, 1e9)
		n := 0
		for f := 0; f < 10*fps; f++ {
			ts := float64(f) / fps
			first := ts + 0.001 + buildUp*float64(f)
			for k := 0; k < perFrame; k++ {
				last := g.lastBackoff
				g.OnArrival(ts, first+float64(k)*spread, pktBytes)
				if g.lastBackoff != last {
					n++
				}
			}
		}
		return n
	}
	for _, p := range []struct {
		name   string
		spread float64 // seconds between a frame's packets at the receiver
	}{
		{"spread at 2x the rate", pktBytes * 8 / (2 * rate)},
		{"one burst", 20e-6},
	} {
		if n := backoffs(p.spread, 0); n != 0 {
			t.Errorf("%s: %d over-use backoffs on a link that is not queueing", p.name, n)
		}
		if n := backoffs(p.spread, 0.005); n == 0 {
			t.Errorf("%s: no backoff while the queue grows 5 ms a frame", p.name)
		}
	}
}

func TestGCCLossController(t *testing.T) {
	g := NewGCC(50e6, 1e6, 500e6)
	g.OnLossReport(0.3)
	if g.Rate() >= 50e6 {
		t.Error("heavy loss did not reduce rate")
	}
	r := g.Rate()
	g.OnLossReport(0.0)
	if g.Rate() <= r {
		t.Error("zero loss did not allow increase")
	}
	// Mid-range loss: hold.
	r = g.Rate()
	g.OnLossReport(0.05)
	if g.Rate() != r {
		t.Error("mid loss should hold rate")
	}
}

func TestGCCConvergesNearLinkCapacity(t *testing.T) {
	// End-to-end with the emulated link: a sender paces packets at the
	// GCC rate; the estimate should converge near (not above) capacity —
	// the utilization property of Table 1.
	linkMbps := 50.0
	link := netem.NewFixedLink(linkMbps)
	g := NewGCC(5e6, 1e6, 500e6)
	now := 0.0
	for i := 0; i < 20000; i++ {
		// Pace 1200-byte packets at the current rate.
		gap := float64(1200*8) / g.Rate()
		now += gap
		arrival, dropped := link.Send(now, 1200)
		if !dropped {
			g.OnArrival(now, arrival, 1200)
		}
	}
	rate := g.Rate() / 1e6
	if rate < linkMbps*0.5 || rate > linkMbps*1.3 {
		t.Errorf("GCC converged to %.1f Mbps on a %.0f Mbps link", rate, linkMbps)
	}
}

// TestFirstFragment checks the raw-bytes first-fragment probe against
// Marshal across fragment positions, parity, and junk input.
func TestFirstFragment(t *testing.T) {
	mk := func(p Packet) []byte { return append([]byte{MediaMagic}, p.Marshal()...) }
	first := Packet{Stream: StreamDepth, FrameSeq: 0xcafe01, FragIndex: 0, FragCount: 3,
		Key: true, SendTimeUs: 123, Payload: []byte{1}}
	if s, seq, ok := FirstFragment(mk(first)); !ok || s != StreamDepth || seq != 0xcafe01 {
		t.Fatalf("first fragment: got stream=%d seq=%d ok=%v", s, seq, ok)
	}
	later := first
	later.FragIndex = 1
	if _, _, ok := FirstFragment(mk(later)); ok {
		t.Fatal("non-first fragment accepted")
	}
	parity := first
	parity.Parity = true
	if _, _, ok := FirstFragment(mk(parity)); ok {
		t.Fatal("parity packet accepted")
	}
	if _, _, ok := FirstFragment(first.Marshal()); ok {
		t.Fatal("unprefixed packet accepted (payload byte happened to match?)")
	}
	if _, _, ok := FirstFragment([]byte{MediaMagic, 1, 2}); ok {
		t.Fatal("short datagram accepted")
	}
}
