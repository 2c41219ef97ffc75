// Package transport is the real-time media transport LiVo rides on — the
// WebRTC analogue (§3.1, §3.3, §A.1): RTP-style packetization of encoded
// frames, a Google-congestion-control-style bandwidth estimator [24]
// (delay-gradient trendline + over-use detector + AIMD), a jitter buffer
// (100 ms, §4.4), and NACK-based recovery with PLI (key-frame requests).
// It works both over the emulated link (replay experiments) and real UDP
// sockets (live pipeline).
package transport

import (
	"encoding/binary"
	"fmt"
)

// MTU is the maximum payload bytes per packet (conservative Ethernet MTU
// minus IP/UDP headers).
const MTU = 1200

// Stream identifiers for LiVo's two video streams.
const (
	StreamColor uint8 = 1
	StreamDepth uint8 = 2
)

// Wire flag bits of the packet flags byte (offset 9 of Marshal's output,
// offset 10 of a MediaMagic-prefixed relay datagram).
const (
	FlagKey    = 0x1 // key-frame fragment
	FlagParity = 0x2 // FEC parity packet (fec.go)
	// FlagRungShift/FlagRungMask carve bits 2–3 out of the flags byte for
	// the quality-ladder rung id (0–3). Pre-ladder senders leave the bits
	// zero, so legacy streams parse as rung 0 — the full-quality rung.
	FlagRungShift      = 2
	FlagRungMask  byte = 0x3 << FlagRungShift
)

// MaxRungs is the number of rung ids the wire format can carry.
const MaxRungs = 4

// Packet is one transport packet: a fragment of an encoded video frame, or
// a parity packet protecting a group of fragments (fec.go).
type Packet struct {
	Stream     uint8
	FrameSeq   uint32
	FragIndex  uint16
	FragCount  uint16
	Key        bool
	Parity     bool
	Rung       uint8  // quality-ladder rung id (0 = full quality)
	SendTimeUs uint64 // sender timestamp, microseconds
	Payload    []byte
}

// HeaderSize is the marshalled packet's size without its payload: a
// packet's wire size is HeaderSize+len(Payload).
const HeaderSize = 1 + 4 + 2 + 2 + 1 + 8 + 2 // ... + payload length

// Marshal serializes the packet into a buffer of its own.
func (p *Packet) Marshal() []byte {
	return p.AppendMarshal(make([]byte, 0, HeaderSize+len(p.Payload)))
}

// AppendMarshal appends the serialized packet to dst and returns the
// extended slice, so a caller sizing dst for a whole frame marshals every
// packet of it without another allocation.
func (p *Packet) AppendMarshal(dst []byte) []byte {
	var flags byte
	if p.Key {
		flags |= FlagKey
	}
	if p.Parity {
		flags |= FlagParity
	}
	flags |= (p.Rung << FlagRungShift) & FlagRungMask
	dst = append(dst, p.Stream)
	dst = binary.BigEndian.AppendUint32(dst, p.FrameSeq)
	dst = binary.BigEndian.AppendUint16(dst, p.FragIndex)
	dst = binary.BigEndian.AppendUint16(dst, p.FragCount)
	dst = append(dst, flags)
	dst = binary.BigEndian.AppendUint64(dst, p.SendTimeUs)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(p.Payload)))
	return append(dst, p.Payload...)
}

// Unmarshal parses a packet.
func Unmarshal(b []byte) (Packet, error) {
	if len(b) < HeaderSize {
		return Packet{}, fmt.Errorf("transport: packet too short (%d)", len(b))
	}
	p := Packet{
		Stream:     b[0],
		FrameSeq:   binary.BigEndian.Uint32(b[1:]),
		FragIndex:  binary.BigEndian.Uint16(b[5:]),
		FragCount:  binary.BigEndian.Uint16(b[7:]),
		Key:        b[9]&1 != 0,
		Parity:     b[9]&parityFlag != 0,
		Rung:       (b[9] & FlagRungMask) >> FlagRungShift,
		SendTimeUs: binary.BigEndian.Uint64(b[10:]),
	}
	n := int(binary.BigEndian.Uint16(b[18:]))
	if len(b) < HeaderSize+n {
		return Packet{}, fmt.Errorf("transport: payload truncated (%d < %d)", len(b)-HeaderSize, n)
	}
	p.Payload = append([]byte(nil), b[HeaderSize:HeaderSize+n]...)
	if p.FragCount == 0 || p.FragIndex >= p.FragCount {
		return Packet{}, fmt.Errorf("transport: bad fragment %d/%d", p.FragIndex, p.FragCount)
	}
	return p, nil
}

// MediaHeader is the routing-relevant prefix of a MediaMagic-prefixed wire
// datagram: everything the relay needs to classify, filter and cache a
// packet without unmarshalling it.
type MediaHeader struct {
	Seq    uint32
	Frag   uint16
	Stream uint8
	Rung   uint8
	Key    bool
	Parity bool
}

// PeekMedia reads the header fields straight off a wire datagram. ok is
// false for anything that is not a media packet long enough to carry its
// flags byte; the payload is not validated (Unmarshal does that).
func PeekMedia(wire []byte) (h MediaHeader, ok bool) {
	if len(wire) < 11 || wire[0] != MediaMagic {
		return MediaHeader{}, false
	}
	flags := wire[10]
	return MediaHeader{
		Seq:    binary.BigEndian.Uint32(wire[2:]),
		Frag:   binary.BigEndian.Uint16(wire[6:]),
		Stream: wire[1],
		Rung:   (flags & FlagRungMask) >> FlagRungShift,
		Key:    flags&FlagKey != 0,
		Parity: flags&FlagParity != 0,
	}, true
}

// First reports whether the packet is fragment 0 of a media frame's data
// (parity excluded) — the fragment trace stamps and rung switches key on.
func (h MediaHeader) First() bool { return h.Frag == 0 && !h.Parity }

// FirstFragment reports whether a MediaMagic-prefixed wire datagram
// carries fragment 0 of a media frame (parity excluded) and, if so,
// returns the frame's stream and sequence without unmarshalling. Trace
// stamp sites on the relay and receiver hot paths use it to stamp each
// frame exactly once per hop straight off the raw bytes.
func FirstFragment(wire []byte) (stream uint8, frameSeq uint32, ok bool) {
	h, ok := PeekMedia(wire)
	if !ok || !h.First() {
		return 0, 0, false
	}
	return h.Stream, h.Seq, true
}

// Packetize splits one encoded frame into MTU-sized packets on rung 0.
func Packetize(stream uint8, frameSeq uint32, key bool, sendTimeUs uint64, data []byte) []Packet {
	return PacketizeRung(stream, frameSeq, key, 0, sendTimeUs, data)
}

// PacketizeRung splits one encoded frame into MTU-sized packets stamped
// with a quality-ladder rung id (0–3).
func PacketizeRung(stream uint8, frameSeq uint32, key bool, rung uint8, sendTimeUs uint64, data []byte) []Packet {
	if len(data) == 0 {
		return nil
	}
	count := (len(data) + MTU - 1) / MTU
	pkts := make([]Packet, 0, count)
	for i := 0; i < count; i++ {
		lo := i * MTU
		hi := lo + MTU
		if hi > len(data) {
			hi = len(data)
		}
		pkts = append(pkts, Packet{
			Stream:     stream,
			FrameSeq:   frameSeq,
			FragIndex:  uint16(i),
			FragCount:  uint16(count),
			Key:        key,
			Rung:       rung,
			SendTimeUs: sendTimeUs,
			Payload:    data[lo:hi],
		})
	}
	return pkts
}
