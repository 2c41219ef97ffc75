package transport

import (
	"bytes"
	"testing"
)

// FuzzUnmarshal hardens packet parsing: arbitrary bytes must produce either
// an error or a packet that survives a marshal round trip — never a panic.
func FuzzUnmarshal(f *testing.F) {
	pkt := Packet{
		Stream: StreamColor, FrameSeq: 7, FragIndex: 1, FragCount: 3,
		Key: true, SendTimeUs: 123456, Payload: []byte("payload bytes"),
	}
	full := pkt.Marshal()
	f.Add(full)
	f.Add(full[:HeaderSize])
	f.Add(full[:HeaderSize-1])
	f.Add([]byte{})
	parity := BuildParity(Packetize(StreamDepth, 9, false, 1, bytes.Repeat([]byte{0x5A}, 3*MTU)))
	f.Add(parity[0].Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Unmarshal(data)
		if err != nil {
			return
		}
		rt, err := Unmarshal(p.Marshal())
		if err != nil {
			t.Fatalf("accepted packet failed round trip: %v", err)
		}
		if rt.Stream != p.Stream || rt.FrameSeq != p.FrameSeq ||
			rt.FragIndex != p.FragIndex || rt.FragCount != p.FragCount ||
			rt.Key != p.Key || rt.Parity != p.Parity ||
			rt.SendTimeUs != p.SendTimeUs || !bytes.Equal(rt.Payload, p.Payload) {
			t.Fatalf("round trip changed packet: %+v vs %+v", p, rt)
		}
	})
}

// FuzzRecoverWithParity feeds arbitrary parity payloads to FEC recovery
// against a fixed group with one missing fragment.
func FuzzRecoverWithParity(f *testing.F) {
	media := Packetize(StreamColor, 1, false, 0, bytes.Repeat([]byte{0xAB, 0x17}, 2*MTU))
	parity := BuildParity(media)
	f.Add(parity[0].Payload)
	f.Add(parity[0].Payload[:2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, pp []byte) {
		got := map[uint16][]byte{
			0: media[0].Payload,
			2: media[2].Payload,
		}
		idx, payload, err := RecoverWithParity(got, pp, 0)
		if err != nil {
			return
		}
		if idx != 1 {
			t.Fatalf("recovered wrong fragment %d", idx)
		}
		if len(payload) > len(pp) {
			t.Fatalf("recovered %d bytes from %d-byte parity", len(payload), len(pp))
		}
	})
}

// FuzzPeekMedia holds the relay's header peek to the full parser: on every
// datagram both accept, every field the peek reports matches Unmarshal's,
// a datagram Unmarshal accepts is never refused by the peek, and
// FirstFragment is exactly "fragment 0, not parity".
func FuzzPeekMedia(f *testing.F) {
	wire := func(p Packet) []byte { return append([]byte{MediaMagic}, p.Marshal()...) }
	base := Packet{Stream: StreamDepth, FrameSeq: 0xCAFE01, FragIndex: 2, FragCount: 5, SendTimeUs: 99, Payload: []byte("xyz")}
	for rung := uint8(0); rung < MaxRungs; rung++ {
		p := base
		p.Rung, p.Key = rung, rung%2 == 0
		f.Add(wire(p))
	}
	parity := base
	parity.Parity, parity.FragIndex = true, 0
	f.Add(wire(parity))
	first := base
	first.FragIndex = 0
	full := wire(first)
	f.Add(full)
	f.Add(full[:11]) // just enough for the peek, too short to unmarshal
	f.Add(full[:10]) // flags byte missing
	f.Add(full[:1])
	f.Add([]byte{})
	f.Add(first.Marshal()) // no magic
	f.Fuzz(func(t *testing.T, data []byte) {
		h, ok := PeekMedia(data)
		stream, seq, isFirst := FirstFragment(data)
		if isFirst != (ok && h.First()) || h.First() != (h.Frag == 0 && !h.Parity) {
			t.Fatalf("FirstFragment = %v, First() = %v for header %+v (ok=%v)", isFirst, h.First(), h, ok)
		}
		if isFirst && (stream != h.Stream || seq != h.Seq) {
			t.Fatalf("FirstFragment = (%d, %d), peek %+v", stream, seq, h)
		}
		if !ok {
			if h != (MediaHeader{}) {
				t.Fatalf("refused datagram returned fields: %+v", h)
			}
			if len(data) > 0 && data[0] == MediaMagic {
				if _, err := Unmarshal(data[1:]); err == nil {
					t.Fatal("peek refused a datagram Unmarshal accepts")
				}
			}
			return
		}
		p, err := Unmarshal(data[1:])
		if err != nil {
			return
		}
		want := MediaHeader{Seq: p.FrameSeq, Frag: p.FragIndex, Stream: p.Stream, Rung: p.Rung, Key: p.Key, Parity: p.Parity}
		if h != want {
			t.Fatalf("peek %+v disagrees with Unmarshal %+v", h, want)
		}
	})
}
