package session

import "livo/internal/transport"

// History is a sender's retransmission store: the wire copy of each recent
// media packet by (stream, seq, fragment, rung). It is not concurrency-safe.
type History struct {
	wires map[histKey][]byte
	keys  []histKey // insertion order, a ring once full
	next  int       // the oldest key once the ring is full
}

type histKey struct {
	stream uint8
	seq    uint32
	frag   uint16
	rung   uint8
}

// NewHistory keeps about a second of packets for NACKs: 4096, or 8192 for
// a ladder sender, whose rungs multiply the packet rate.
func NewHistory(ladder bool) *History {
	limit := 4096
	if ladder {
		limit = 8192
	}
	return &History{wires: make(map[histKey][]byte), keys: make([]histKey, 0, limit)}
}

// Add records wire as data packet p's copy; the first copy of a key wins.
func (h *History) Add(p *transport.Packet, wire []byte) {
	if p.Parity {
		return
	}
	k := histKey{p.Stream, p.FrameSeq, p.FragIndex, p.Rung}
	if _, exists := h.wires[k]; exists {
		return
	}
	h.wires[k] = wire
	if len(h.keys) < cap(h.keys) {
		h.keys = append(h.keys, k)
		return
	}
	delete(h.wires, h.keys[h.next])
	h.keys[h.next] = k
	h.next = (h.next + 1) % len(h.keys)
}

// Nack returns every rung's copy of req's fragment: a wire NACK names no
// rung. A direct receiver buffers one rung; through a relay, its cache or
// the subscriber filter delivers just the copy the subscriber watches.
func (h *History) Nack(req transport.NackRequest) [][]byte {
	var wires [][]byte
	for rung := uint8(0); rung < transport.MaxRungs; rung++ {
		if w := h.wires[histKey{req.Stream, req.FrameSeq, req.FragIndex, rung}]; w != nil {
			wires = append(wires, w)
		}
	}
	return wires
}
