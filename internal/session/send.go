package session

import (
	"sync/atomic"
	"time"

	"livo/internal/codec/vcodec"
	"livo/internal/core"
	"livo/internal/frametrace"
	"livo/internal/transport"
)

// paceFrames is the pacer's queue, about a second at 30 fps: a pacer that
// far behind is not catching up, so the frames after it are dropped whole.
const paceFrames = 32

// Send is the send core of one session: it cuts each encoded frame into
// packets, marshals them as the socket's datagrams (MediaMagic, then the
// packet), keeps them for NACKs and holds them for the pacer, which spaces
// them at twice the media rate (§3.1, §A.1). The caller serialises Queue,
// Due and Nack; the counters may be read from any goroutine.
type Send struct {
	fec bool
	// queue holds up to paceFrames frames from queue[head], each its
	// datagrams in send order.
	queue   [paceFrames][][]byte
	head, n int
	next    time.Time // the pacer's schedule: when the head datagram may leave
	// history is the datagram of each recent media packet; ring keys it in
	// insertion order, and oldest is the next key to evict once it is full.
	history map[histKey][]byte
	ring    []histKey
	oldest  int

	Trace *frametrace.Ledger // when non-nil, Cut stamps each frame's packetize hop
	// Frames counts the frames handed to Queue, Packets and Bytes the
	// datagrams queued, PaceDrops the datagrams of frames dropped whole,
	// Nacks the NACKs answered and Retransmits the copies they returned.
	Frames, Packets, Bytes, PaceDrops, Nacks, Retransmits atomic.Int64
}

type histKey struct {
	stream uint8
	seq    uint32
	frag   uint16
	rung   uint8
}

// NewSend returns a send core, adding XOR parity to each encoding when fec
// is set. It keeps about a second of packets for NACKs: 4096, or 8192 for a
// ladder sender, whose rungs multiply the packet rate.
func NewSend(ladder, fec bool) *Send {
	keep := 4096
	if ladder {
		keep = 8192
	}
	return &Send{fec: fec, history: make(map[histKey][]byte), ring: make([]histKey, 0, keep)}
}

// Cut cuts enc into its packets, stamped ts (µs): every rung of colour,
// then every rung of depth; each encoding's media, then its parity, so a
// parity group never spans encodings. The relay filters rungs per
// subscriber (DESIGN.md §8).
func (s *Send) Cut(enc *core.EncodedFrame, ts uint64) []transport.Packet {
	color, depth := enc.ColorRungs, enc.DepthRungs
	if color == nil {
		color, depth = []*vcodec.Packet{enc.Color}, []*vcodec.Packet{enc.Depth}
	}
	var pkts []transport.Packet
	for si, rungs := range [2][]*vcodec.Packet{color, depth} {
		for _, p := range rungs {
			media := transport.PacketizeRung(transport.StreamColor+uint8(si), enc.Seq, p.Key, p.Rung, ts, p.Data)
			pkts = append(pkts, media...)
			if s.fec {
				pkts = append(pkts, transport.BuildParity(media)...)
			}
		}
	}
	s.Trace.StampNow(frametrace.HopPacketize, 0, enc.Seq, frametrace.NoSub)
	return pkts
}

// Queue marshals one frame's packets into a single frame-sized slab, keeps
// the media packets for NACKs and queues the frame for the pacer. A frame
// that finds paceFrames queued is dropped whole, since part of one is of no
// use to the receiver; NACKs for it are still answered. It reports whether
// the queue was empty, so the pacer has no wake-up set and needs one.
func (s *Send) Queue(pkts []transport.Packet) (wake bool) {
	s.Frames.Add(1)
	size := 0
	for i := range pkts {
		size += 1 + transport.HeaderSize + len(pkts[i].Payload)
	}
	slab := make([]byte, 0, size)
	wires := make([][]byte, len(pkts))
	for i := range pkts {
		start := len(slab)
		slab = pkts[i].AppendMarshal(append(slab, transport.MediaMagic))
		wires[i] = slab[start:len(slab):len(slab)]
		s.keep(&pkts[i], wires[i])
	}
	if s.n == paceFrames {
		s.PaceDrops.Add(int64(len(wires)))
		return false
	}
	s.queue[(s.head+s.n)%paceFrames] = wires
	s.n++
	s.Packets.Add(int64(len(wires)))
	s.Bytes.Add(int64(size))
	return s.n == 1
}

// keep records wire as media packet p's copy; the first copy of a key wins.
func (s *Send) keep(p *transport.Packet, wire []byte) {
	k := histKey{p.Stream, p.FrameSeq, p.FragIndex, p.Rung}
	if _, exists := s.history[k]; exists || p.Parity {
		return
	}
	s.history[k] = wire
	if len(s.ring) < cap(s.ring) {
		s.ring = append(s.ring, k)
		return
	}
	delete(s.history, s.ring[s.oldest])
	s.ring[s.oldest] = k
	s.oldest = (s.oldest + 1) % len(s.ring)
}

// Due moves the datagrams due at now at twice rate (transport.PaceDue) from
// the queue onto dst and returns it, with the time the next one is due;
// queued reports whether any is left. A pacer sends what Due returns as one
// batch, then waits until next while queued, or for the next Queue.
func (s *Send) Due(dst [][]byte, now time.Time, rate float64) (wires [][]byte, next time.Time, queued bool) {
	for s.n > 0 {
		frame := s.queue[s.head]
		n, next := transport.PaceDue(s.next, now, rate, frame)
		s.next, dst = next, append(dst, frame[:n]...)
		if n < len(frame) {
			s.queue[s.head] = frame[n:]
			return dst, next, true
		}
		s.queue[s.head] = nil
		s.head, s.n = (s.head+1)%paceFrames, s.n-1
	}
	return dst, s.next, false
}

// Nack returns every rung's copy of req's fragment: a wire NACK names no
// rung. A direct receiver buffers one rung; through a relay, its cache or
// the subscriber filter delivers just the copy the subscriber watches.
func (s *Send) Nack(req transport.NackRequest) [][]byte {
	var wires [][]byte
	for rung := uint8(0); rung < transport.MaxRungs; rung++ {
		if w := s.history[histKey{req.Stream, req.FrameSeq, req.FragIndex, rung}]; w != nil {
			wires = append(wires, w)
		}
	}
	s.Nacks.Add(1)
	s.Retransmits.Add(int64(len(wires)))
	return wires
}
