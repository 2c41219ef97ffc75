package relaycore

import (
	"bytes"
	"net"
	"testing"
	"time"

	"livo/internal/transport"
)

// FuzzRouteFeedback feeds arbitrary reverse-path datagrams to a live
// router, as a subscriber (the primary, or another) and as a stranger.
// Whatever the bytes: no panic; the sender is written only well-formed
// aggregates (a 9-byte REMB, a one-byte PLI), the caller's own
// NACK/pose/unknown datagram verbatim, and never a probe; a pose reaches
// it only from the primary; a stranger's probe gets no echo; and every
// pooled buffer is back after Close.
func FuzzRouteFeedback(f *testing.F) {
	f.Add(transport.AppendREMB(nil, 120e3), uint8(0))
	f.Add(transport.AppendREMB(nil, 5e6)[:5], uint8(1))
	f.Add(transport.MarshalNACK(transport.StreamColor, 3, 1), uint8(1))
	f.Add(transport.MarshalNACK(transport.StreamDepth, 99, 0), uint8(2))
	f.Add(transport.MarshalNACK(transport.StreamColor, 3, 1)[:7], uint8(0))
	f.Add([]byte{transport.FBPLI}, uint8(1))
	f.Add([]byte{transport.FBPose, 1, 2, 3}, uint8(0))
	f.Add([]byte{transport.FBPose, 1, 2, 3}, uint8(1))
	f.Add([]byte{transport.FBPing, 1, 2, 3, 4, 5, 6, 7, 8}, uint8(1))
	f.Add([]byte{transport.FBPing, 1}, uint8(2))
	f.Add([]byte{transport.FBPong, 1, 2, 3, 4, 5, 6, 7, 8}, uint8(0))
	f.Add(mediaWireRung(1, 3, 0, 2, true, 3, []byte("m")), uint8(1))
	f.Add([]byte{0xEE, 0xFF}, uint8(2))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, who uint8) {
		rec := newRecWriter()
		cfg := testConfig()
		cfg.Shards = 1
		r := NewRouter(rec, senderAddr(), cfg)
		primary, other, stranger := udp(1), udp(2), udp(500)
		r.Subscribe(primary)
		r.Subscribe(other)
		from := []*net.UDPAddr{primary, other, stranger}[who%3]
		// A two-rung key frame in the cache gives NACKs something to hit.
		for rung := uint8(0); rung < 2; rung++ {
			for frag := uint16(0); frag < 2; frag++ {
				r.RouteMedia(r.Pool().Load(mediaWireRung(1, 3, frag, 2, true, rung, []byte{byte(frag)})))
			}
		}
		if !r.WaitIdle(5 * time.Second) {
			t.Fatal("router did not drain the media")
		}
		before := rec.count(from)

		in := append([]byte(nil), data...)
		r.RouteFeedback(append([]byte(nil), data...), from)
		r.RouteFeedback(data, from) // repeats hit the dedup windows
		if !r.WaitIdle(5 * time.Second) {
			t.Fatal("router did not drain the feedback")
		}

		for _, b := range rec.payloads(senderAddr()) {
			switch {
			case len(b) == 0:
				t.Fatal("empty datagram written to the sender")
			case b[0] == transport.FBPing || b[0] == transport.FBPong:
				t.Fatalf("probe %x reached the sender", b)
			case b[0] == transport.FBREMB:
				if _, err := transport.UnmarshalREMB(b); err != nil || len(b) != 9 {
					t.Fatalf("malformed REMB %x reached the sender", b)
				}
			case b[0] == transport.FBPLI && len(b) == 1:
				// The router's own PLI (a forced downswitch) or the caller's.
			case b[0] == transport.FBPose && from != primary:
				t.Fatalf("pose from a non-primary reached the sender")
			default:
				if !bytes.Equal(b, in) {
					t.Fatalf("sender got %x, which is neither an aggregate nor the input %x", b, in)
				}
				if b[0] == transport.FBNACK {
					if _, _, _, err := transport.UnmarshalNACK(b); err != nil {
						t.Fatalf("malformed NACK %x reached the sender", b)
					}
				}
			}
		}
		if from == stranger && len(in) > 0 && in[0] == transport.FBPing && rec.count(from) != before {
			t.Fatal("a stranger's probe was echoed")
		}
		r.Close()
		if live := r.Stats().PoolLive; live != 0 {
			t.Fatalf("PoolLive = %d after Close, want 0", live)
		}
	})
}
