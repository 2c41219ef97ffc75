package livo

import (
	"math"
	"net"
	"testing"
	"testing/quick"

	"livo/internal/geom"
	"livo/internal/scene"
	"livo/internal/telemetry"
	"livo/internal/transport"
)

func TestPoseFeedbackRoundTrip(t *testing.T) {
	f := func(tm, px, py, pz, ax, ay, az, ang float64) bool {
		if math.IsNaN(tm) || math.IsInf(tm, 0) {
			return true
		}
		p := geom.Pose{
			Position: geom.V3(clampF(px), clampF(py), clampF(pz)),
			Rotation: geom.QuatFromAxisAngle(geom.V3(ax, ay, az), math.Mod(ang, math.Pi)),
		}
		b := marshalPose(tm, p)
		t2, p2, err := unmarshalPose(b)
		if err != nil || t2 != tm {
			return false
		}
		return p2.Position.AlmostEqual(p.Position, 1e-12) &&
			p.Rotation.AngleTo(p2.Rotation) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func clampF(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e6)
}

func TestPoseFeedbackErrors(t *testing.T) {
	if _, _, err := unmarshalPose([]byte{transport.FBPose, 1, 2}); err == nil {
		t.Error("short pose accepted")
	}
}

func TestPingRoundTrip(t *testing.T) {
	b := marshalPing(3.25, transport.FBPing)
	if b[0] != transport.FBPing {
		t.Error("ping type wrong")
	}
	got, err := unmarshalPing(b)
	if err != nil || got != 3.25 {
		t.Fatalf("ping = %v, %v", got, err)
	}
	if _, err := unmarshalPing([]byte{transport.FBPing}); err == nil {
		t.Error("short ping accepted")
	}
}

func TestFeedbackTypesDistinct(t *testing.T) {
	types := []byte{transport.FBPose, transport.FBREMB, transport.FBNACK, transport.FBPLI, transport.FBPing, transport.FBPong}
	seen := map[byte]bool{}
	for _, ty := range types {
		if seen[ty] {
			t.Fatalf("duplicate feedback type %d", ty)
		}
		if ty == mediaMagic {
			t.Fatalf("feedback type %d collides with media magic", ty)
		}
		seen[ty] = true
	}
}

// FuzzHandleFeedback feeds arbitrary datagrams to the two session-level
// parsers that face the wire: SendSession.handleFeedback (reverse path) and
// RecvSession.handleDatagram (media path plus probe echoes). Neither may
// panic, and a datagram too short to be any complete message must leave
// both sessions' counters exactly as they were.
func FuzzHandleFeedback(f *testing.F) {
	media := append([]byte{mediaMagic},
		transport.Packetize(transport.StreamColor, 3, true, 1000, []byte("frame"))[0].Marshal()...)
	for _, seed := range [][]byte{
		marshalPose(1.5, geom.Pose{Position: geom.V3(0, 1.5, 2), Rotation: geom.Quat{W: 1}}),
		transport.AppendREMB(nil, 4e6),
		transport.MarshalNACK(transport.StreamDepth, 7, 2),
		{transport.FBPLI},
		marshalPing(0.25, transport.FBPing),
		marshalPing(0.25, transport.FBPong),
		media,
	} {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		f.Add(seed[:1])
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff})

	v, err := scene.OpenVideo("office1", testCapture())
	if err != nil {
		f.Fatal(err)
	}
	mem := newMemNet()
	nowhere := &net.UDPAddr{IP: net.IPv4(10, 9, 0, 9), Port: 9} // memNet drops what is sent here
	reg := telemetry.NewRegistry()
	s, err := NewSendSession(mem.listen(f), nowhere, SendSessionConfig{
		Sender: SenderConfig{Array: v.Array, ViewParams: DefaultViewParams(), Telemetry: reg},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = s.Close() })
	r, err := NewRecvSession(mem.listen(f), nowhere, RecvSessionConfig{
		Receiver: ReceiverConfig{Array: v.Array, Telemetry: reg},
	})
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		send0, recv0 := s.Stats(), r.Stats()
		s.handleFeedback(append([]byte(nil), b...)) // a ping is answered in place
		r.loopMu.Lock()
		r.handleDatagram(b, r.now())
		r.loopMu.Unlock()
		// The shortest messages that count: a 1-byte PLI, an 8-byte NACK; a
		// 9-byte pong on the receive side.
		if len(b) < 8 && (len(b) == 0 || b[0] != transport.FBPLI) && s.Stats() != send0 {
			t.Fatalf("short feedback %x changed the send session: %+v → %+v", b, send0, s.Stats())
		}
		if len(b) < 9 && r.Stats() != recv0 {
			t.Fatalf("short datagram %x changed the receive session: %+v → %+v", b, recv0, r.Stats())
		}
	})
}
