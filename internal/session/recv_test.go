package session

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"livo/internal/codec/vcodec"
	"livo/internal/core"
	"livo/internal/geom"
	"livo/internal/scene"
	"livo/internal/transport"
)

// openRig opens a small office1 capture and returns its camera array and
// the first n frames encoded by a sender whose only periodic key frame is
// the first; forceKey lists the further frames encoded as key frames.
func openRig(t testing.TB, n int, ladder bool, forceKey ...int) (*scene.Video, []*core.EncodedFrame) {
	t.Helper()
	v, err := scene.OpenVideo("office1", scene.CaptureConfig{
		Cameras: 4, Width: 64, Height: 48, HFov: 75 * math.Pi / 180,
		RingRadius: 2.6, RingHeight: 1.5, MaxRange: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	sender, err := core.NewSender(core.SenderConfig{
		Variant: core.LiVoNoCull, Array: v.Array, ViewParams: geom.DefaultViewParams(), GOP: 1000, Ladder: ladder,
	})
	if err != nil {
		t.Fatal(err)
	}
	var frames []*core.EncodedFrame
	for i := 0; i < n; i++ {
		for _, k := range forceKey {
			if k == i {
				sender.ForceKeyFrame()
			}
		}
		enc, err := sender.ProcessFrame(v.Frame(i), 4e6)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, enc)
	}
	return v, frames
}

// datagram is p as it goes on the wire: MediaMagic, then the packet.
func datagram(p *transport.Packet) []byte { return p.AppendMarshal([]byte{transport.MediaMagic}) }

// wires marshals both streams of one encoded frame, sent at ts seconds.
func wires(enc *core.EncodedFrame, ts float64) [][]byte {
	var out [][]byte
	for si, pkt := range []*vcodec.Packet{enc.Color, enc.Depth} {
		for _, p := range transport.Packetize(transport.StreamColor+uint8(si), enc.Seq, pkt.Key, uint64(ts*1e6), pkt.Data) {
			out = append(out, datagram(&p))
		}
	}
	return out
}

// shown is one OnFrame call.
type shown struct {
	seq       uint32
	pairSeq   int // the pair's seq, -1 for none
	concealed bool
}

type recvLog struct {
	shown []shown
	nacks []transport.NackRequest
	plis  []float64 // the times PLIs went out
}

// newLogged returns a receive core for v's array whose callbacks append to
// the returned log; *now is the time PLIs are logged at.
func newLogged(t testing.TB, v *scene.Video, gcc *transport.GCC, now *float64) (*Recv, *recvLog) {
	t.Helper()
	receiver, err := core.NewReceiver(core.ReceiverConfig{Array: v.Array})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRecv(receiver, &transport.PlayoutEstimator{}, gcc)
	log := &recvLog{}
	r.OnFrame = func(seq uint32, pf *core.PairedFrame, concealed bool, _ float64) {
		s := shown{seq: seq, pairSeq: -1, concealed: concealed}
		if pf != nil {
			s.pairSeq = int(pf.Seq)
		}
		log.shown = append(log.shown, s)
	}
	r.OnNack = func(n transport.NackRequest) { log.nacks = append(log.nacks, n) }
	r.OnPLI = func() { log.plis = append(log.plis, *now) }
	return r, log
}

func newGCC() *transport.GCC { return transport.NewGCC(4e6, 1e6, 8e6) }

// TestRecvConcealAndPLI walks one PLI cycle through the core: frame 1 is
// lost whole, so frames 2–4 fail to decode on both streams; frame 5 is a
// key frame, frame 6 is lost and frame 7 fails again. Each failing frame is
// concealed once, with the last good pair. The first failure sends a PLI, a
// failure within 250 ms of it sends none and one after sends another; once
// the key frame has decoded, the next failure sends one at once.
func TestRecvConcealAndPLI(t *testing.T) {
	v, frames := openRig(t, 8, false, 5)
	if !frames[5].Color.Key || !frames[5].Depth.Key || frames[7].Color.Key {
		t.Fatal("vacuous: frame 5 is not a key frame, or frame 7 is")
	}
	var now float64
	r, log := newLogged(t, v, newGCC(), &now)
	for _, step := range []struct {
		seq int
		at  float64
	}{{0, 0}, {2, 0.066}, {3, 0.100}, {4, 0.400}, {5, 0.433}, {7, 0.500}} {
		now = step.at
		for _, w := range wires(frames[step.seq], now) {
			if !r.Media(w, now, len(w)) {
				t.Fatalf("frame %d: a marshalled packet did not parse", step.seq)
			}
		}
		r.Drain(now)
	}

	want := []shown{
		{0, 0, false},
		{2, 0, true}, {3, 0, true}, {4, 0, true},
		{5, 5, false},
		{7, 5, true},
	}
	if !reflect.DeepEqual(log.shown, want) {
		t.Errorf("shown %+v, want %+v", log.shown, want)
	}
	if want := []float64{0.066, 0.400, 0.500}; !reflect.DeepEqual(log.plis, want) {
		t.Errorf("PLIs at %v, want %v", log.plis, want)
	}
	if d, c, p := r.Decoded.Load(), r.Concealed.Load(), r.PLIs.Load(); d != 2 || c != 4 || p != 3 {
		t.Errorf("decoded %d, concealed %d, PLIs %d; want 2, 4, 3", d, c, p)
	}
	if len(log.nacks) != 0 {
		t.Errorf("NACK-ed %v for frames lost whole", log.nacks)
	}
}

// TestRecvLossReport: the loss report is the NACK-ed share of what arrived
// or was NACK-ed since the last report, checked against a twin estimator
// fed the same arrivals and the expected shares.
func TestRecvLossReport(t *testing.T) {
	v, _ := openRig(t, 0, false)
	var now float64
	gcc, twin := newGCC(), newGCC()
	r, log := newLogged(t, v, gcc, &now)
	arrive := func(p transport.Packet, at float64) {
		w := datagram(&p)
		r.Media(w, at, len(w))
		twin.OnArrival(float64(p.SendTimeUs)/1e6, at, len(w))
	}

	// Frame 0 arrives whole: nothing is NACK-ed.
	for _, p := range transport.Packetize(transport.StreamColor, 0, true, 0, make([]byte, 3*transport.MTU)) {
		arrive(p, 0.001)
	}
	r.Drain(0.001)
	twin.OnLossReport(0)
	if got, want := r.Report(), twin.Rate(); got != want {
		t.Fatalf("clean report: rate %v, want %v", got, want)
	}

	// Frame 1 loses its middle fragment: 2 arrive, 1 is NACK-ed.
	lossy := transport.Packetize(transport.StreamColor, 1, false, 33000, make([]byte, 3*transport.MTU))
	arrive(lossy[0], 0.034)
	arrive(lossy[2], 0.034)
	r.Drain(0.060)
	if want := []transport.NackRequest{{Stream: transport.StreamColor, FrameSeq: 1, FragIndex: 1}}; !reflect.DeepEqual(log.nacks, want) {
		t.Fatalf("NACK-ed %v, want %v", log.nacks, want)
	}
	before := twin.Rate()
	twin.OnLossReport(1.0 / 3)
	if twin.Rate() >= before {
		t.Fatal("vacuous: a third lost does not lower the estimate")
	}
	if got, want := r.Report(), twin.Rate(); got != want {
		t.Errorf("lossy report: rate %v, want %v (a loss share of 1/3)", got, want)
	}

	// Nothing since: the next report folds in no loss at all.
	if got, want := r.Report(), twin.Rate(); got != want {
		t.Errorf("empty report: rate %v, want %v", got, want)
	}
}

// TestRecvMediaNeedsMagic: a datagram is media only behind MediaMagic; the
// same packet behind any other first byte — feedback, junk, a flipped
// prefix — is not counted or buffered.
func TestRecvMediaNeedsMagic(t *testing.T) {
	v, _ := openRig(t, 0, false)
	var now float64
	r, _ := newLogged(t, v, newGCC(), &now)
	p := transport.Packetize(transport.StreamColor, 0, true, 0, []byte("frame"))[0]
	w := datagram(&p)
	for _, first := range []byte{transport.FBNACK, transport.MediaMagic ^ 1, 0} {
		bad := append([]byte{first}, w[1:]...)
		if r.Media(bad, now, len(bad)) || r.Received.Load() != 0 || r.StreamStats(0).Pending != 0 {
			t.Fatalf("a packet behind first byte %#x was taken as media", first)
		}
	}
	if !r.Media(w, now, len(w)) || r.Received.Load() != 1 {
		t.Fatal("the packet behind MediaMagic was not taken as media")
	}
}

// FuzzRecv feeds arbitrary datagrams to a fresh receive core, draining after
// each on a clock that advances 10 ms a datagram. An input is a sequence of
// datagrams, each prefixed by its 2-byte big-endian length. The core must
// not panic, and a datagram that is not MediaMagic followed by a whole media
// header must leave its counters unchanged.
func FuzzRecv(f *testing.F) {
	v, frames := openRig(f, 2, true)
	join := func(ws ...[]byte) []byte {
		var in []byte
		for _, w := range ws {
			in = binary.BigEndian.AppendUint16(in, uint16(len(w)))
			in = append(in, w...)
		}
		return in
	}
	// A key frame and the delta frame after it, on each rung; rung 3 carries
	// rung 2's quarter-resolution data under an id no encoder uses.
	for rung := 0; rung < transport.MaxRungs; rung++ {
		src := min(rung, len(frames[0].ColorRungs)-1)
		var ws [][]byte
		for _, enc := range frames {
			for si, rungs := range [][]*vcodec.Packet{enc.ColorRungs, enc.DepthRungs} {
				pkt := rungs[src]
				for _, p := range transport.PacketizeRung(transport.StreamColor+uint8(si), enc.Seq, pkt.Key, uint8(rung), uint64(enc.Seq)*33000, pkt.Data) {
					ws = append(ws, datagram(&p))
				}
			}
		}
		f.Add(join(ws...))
		f.Add(join(ws[len(ws)/2:]...)) // the delta frame without its reference
	}
	f.Add(join(wires(frames[0], 0)[0][:transport.HeaderSize]))
	f.Add(join(wires(frames[0], 0)[0][1:])) // no MediaMagic
	f.Add(join([]byte{}, []byte{0xff}))
	f.Add([]byte{0x00})

	f.Fuzz(func(t *testing.T, in []byte) {
		var now float64
		r, _ := newLogged(t, v, newGCC(), &now)
		counters := func() [8]int64 {
			c, d := r.StreamStats(0), r.StreamStats(1)
			return [8]int64{r.Received.Load(), r.Decoded.Load(), r.Concealed.Load(), r.PLIs.Load(),
				int64(c.Pending), int64(d.Pending), c.Nacked, d.Nacked}
		}
		for len(in) > 0 {
			n := len(in)
			if len(in) >= 2 {
				n = min(int(binary.BigEndian.Uint16(in)), len(in)-2)
				in = in[2:]
			}
			w := in[:n]
			in = in[n:]
			before := counters()
			r.Media(w, now, len(w))
			notMedia := len(w) <= transport.HeaderSize || w[0] != transport.MediaMagic
			if after := counters(); notMedia && after != before {
				t.Fatalf("%d-byte datagram changed the counters: %v → %v", len(w), before, after)
			}
			r.Drain(now)
			now += 0.010
		}
	})
}
