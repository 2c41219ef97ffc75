package session

import (
	"bytes"
	"testing"
	"time"

	"livo/internal/transport"
)

// parse strips and checks a datagram's MediaMagic prefix and parses the
// packet after it.
func parse(t *testing.T, w []byte) transport.Packet {
	t.Helper()
	if len(w) == 0 || w[0] != transport.MediaMagic {
		t.Fatalf("datagram %x does not start with MediaMagic", w[:min(len(w), 4)])
	}
	p, err := transport.Unmarshal(w[1:])
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// drain returns every datagram s holds, as one pacer would send them at a
// rate no queue outlasts.
func drain(s *Send) [][]byte {
	wires, _, _ := s.Due(nil, time.Unix(1e6, 0), 1e15)
	return wires
}

// frameOf is frame seq as n full-size colour packets.
func frameOf(seq uint32, n int) []transport.Packet {
	return transport.Packetize(transport.StreamColor, seq, false, 0, make([]byte, n*transport.MTU))
}

// TestSendWireOrder: a frame goes on the wire colour then depth, rung by
// rung, each encoding's media then its parity, on the ladder and the
// single-rung path alike; every datagram is MediaMagic and a packet.
func TestSendWireOrder(t *testing.T) {
	for _, ladder := range []bool{false, true} {
		_, frames := openRig(t, 1, ladder)
		enc := frames[0]
		rungs := 1
		if ladder {
			rungs = len(enc.ColorRungs)
		}
		s := NewSend(ladder, true)
		if !s.Queue(s.Cut(enc, 1234)) {
			t.Fatal("the first frame did not ask for a wake-up")
		}
		type group struct{ stream, rung uint8 }
		var order []group
		media, parity := map[group]int{}, map[group]int{}
		for _, w := range drain(s) {
			p := parse(t, w)
			g := group{p.Stream, p.Rung}
			if len(order) == 0 || order[len(order)-1] != g {
				order = append(order, g)
			}
			if p.Parity {
				parity[g]++
			} else if media[g]++; parity[g] > 0 {
				t.Fatalf("ladder %v: %+v fragment %d after its parity", ladder, g, p.FragIndex)
			}
			if p.SendTimeUs != 1234 || p.FrameSeq != enc.Seq {
				t.Fatalf("ladder %v: packet stamped seq %d at %d µs", ladder, p.FrameSeq, p.SendTimeUs)
			}
		}
		var want []group
		for _, stream := range []uint8{transport.StreamColor, transport.StreamDepth} {
			for r := 0; r < rungs; r++ {
				want = append(want, group{stream, uint8(r)})
			}
		}
		if len(order) != len(want) {
			t.Fatalf("ladder %v: encodings on the wire %v, want %v", ladder, order, want)
		}
		for i, g := range want {
			// BuildParity protects groups of two fragments or more.
			if order[i] != g || (parity[g] > 0) != (media[g] > 1) {
				t.Fatalf("ladder %v: encodings on the wire %v, want %v; media %v, parity %v", ladder, order, want, media, parity)
			}
		}
		if len(parity) == 0 {
			t.Fatalf("ladder %v: vacuous, no encoding has parity", ladder)
		}
	}
}

// TestSendNackEveryRung: a NACK names no rung, so it is answered with every
// rung's copy of the fragment, byte for byte the datagram first sent; parity
// is not kept, and a fragment never sent gets nothing.
func TestSendNackEveryRung(t *testing.T) {
	_, frames := openRig(t, 1, true)
	enc := frames[0]
	s := NewSend(true, true)
	s.Queue(s.Cut(enc, 0))
	sent := map[uint8][]byte{}
	for _, w := range drain(s) {
		if p := parse(t, w); p.Stream == transport.StreamDepth && p.FragIndex == 0 && !p.Parity {
			sent[p.Rung] = w
		}
	}
	if len(sent) < 2 {
		t.Fatalf("vacuous: depth fragment 0 went out on %d rungs", len(sent))
	}
	got := s.Nack(transport.NackRequest{Stream: transport.StreamDepth, FrameSeq: enc.Seq, FragIndex: 0})
	if len(got) != len(sent) {
		t.Fatalf("NACK answered with %d copies, want %d (one per rung)", len(got), len(sent))
	}
	for _, w := range got {
		if p := parse(t, w); !bytes.Equal(w, sent[p.Rung]) {
			t.Fatalf("rung %d's copy differs from the datagram sent", p.Rung)
		}
	}
	if w := s.Nack(transport.NackRequest{Stream: transport.StreamDepth, FrameSeq: enc.Seq + 1}); len(w) != 0 {
		t.Fatalf("a NACK for a frame never sent returned %d datagrams", len(w))
	}
	if n, r := s.Nacks.Load(), s.Retransmits.Load(); n != 2 || r != int64(len(sent)) {
		t.Fatalf("counted %d NACKs and %d retransmits, want 2 and %d", n, r, len(sent))
	}
}

// TestSendDropsWholeFrames: with paceFrames frames queued, the next frame is
// dropped whole and its packets counted in PaceDrops, not Packets; the
// queued frames then leave complete and in order, and a NACK for a packet
// of the dropped frame is still answered.
func TestSendDropsWholeFrames(t *testing.T) {
	s := NewSend(false, false)
	sizeOf := func(seq uint32) int { return 1 + int(seq)%4 }
	var queuedPkts int64
	for seq := uint32(0); seq < paceFrames; seq++ {
		if wake := s.Queue(frameOf(seq, sizeOf(seq))); wake != (seq == 0) {
			t.Fatalf("frame %d: wake-up %v, want one for the first frame only", seq, wake)
		}
		queuedPkts += int64(sizeOf(seq))
	}
	if s.Queue(frameOf(paceFrames, 3)) {
		t.Fatal("a frame that found the queue full asked for a wake-up")
	}
	if d, p := s.PaceDrops.Load(), s.Packets.Load(); d != 3 || p != queuedPkts {
		t.Fatalf("PaceDrops %d, Packets %d; want 3 and %d", d, p, queuedPkts)
	}
	if f := s.Frames.Load(); f != paceFrames+1 {
		t.Fatalf("Frames %d, want %d", f, paceFrames+1)
	}
	var seqs []uint32
	frags := map[uint32]int{}
	for _, w := range drain(s) {
		p := parse(t, w)
		if len(seqs) == 0 || seqs[len(seqs)-1] != p.FrameSeq {
			seqs = append(seqs, p.FrameSeq)
		}
		frags[p.FrameSeq]++
	}
	for i, seq := range seqs {
		if seq != uint32(i) || frags[seq] != sizeOf(seq) {
			t.Fatalf("frames on the wire %v with %v packets, want 0–%d whole", seqs, frags, paceFrames-1)
		}
	}
	if len(seqs) != paceFrames {
		t.Fatalf("%d frames on the wire, want %d", len(seqs), paceFrames)
	}
	if _, _, queued := s.Due(nil, time.Unix(1e6, 0), 1e15); queued {
		t.Fatal("the queue is not empty after draining")
	}
	if w := s.Nack(transport.NackRequest{Stream: transport.StreamColor, FrameSeq: paceFrames, FragIndex: 2}); len(w) != 1 {
		t.Fatalf("a NACK for the dropped frame returned %d datagrams, want 1", len(w))
	}
}

// TestSendDuePaces: after an idle gap a frame inside the pacer's credit
// leaves in one Due; a longer one leaves a credit's worth at once and the
// rest on PaceDue's schedule, every datagram exactly once and in order.
func TestSendDuePaces(t *testing.T) {
	const rate = 2e6
	s := NewSend(false, false)
	size := 1 + transport.HeaderSize + transport.MTU
	gap := time.Duration(float64(size) * 8 / (2 * rate) * float64(time.Second))
	fits := int(transport.PaceCredit / gap)
	if fits < 2 {
		t.Fatalf("vacuous: the credit holds %d packets at %v bps", fits, rate)
	}
	now := time.Unix(1e6, 0)
	s.Queue(frameOf(0, fits))
	if wires, _, queued := s.Due(nil, now, rate); len(wires) != fits || queued {
		t.Fatalf("a %d-packet frame inside the credit left %d at once (queued %v)", fits, len(wires), queued)
	}

	now = now.Add(time.Second)
	s.Queue(frameOf(1, 3*fits))
	var frags []uint16
	wakes := 0
	for queued := true; queued; wakes++ {
		var wires [][]byte
		var next time.Time
		wires, next, queued = s.Due(nil, now, rate)
		for _, w := range wires {
			frags = append(frags, parse(t, w).FragIndex)
		}
		if queued && !next.After(now) {
			t.Fatalf("wake-up %d: more is queued but the next is due at %v, not after %v", wakes, next, now)
		}
		now = next
	}
	for i, f := range frags {
		if int(f) != i {
			t.Fatalf("fragments on the wire %v, want 0–%d in order", frags, 3*fits-1)
		}
	}
	if len(frags) != 3*fits || wakes < 3 {
		t.Fatalf("%d fragments in %d wake-ups, want %d in at least 3", len(frags), wakes, 3*fits)
	}
}

// TestSendQueueAllocs: queueing a frame costs the same few allocations
// whether it is one packet or forty — one slab for the datagrams and one
// slice of them, not two per packet — and a pacer that reuses its batch
// adds none.
func TestSendQueueAllocs(t *testing.T) {
	s := NewSend(false, false)
	var batch [][]byte
	allocs := func(n int) float64 {
		pkts := frameOf(0, n)
		seq := uint32(0)
		step := func() {
			seq++
			for i := range pkts {
				pkts[i].FrameSeq = seq
			}
			s.Queue(pkts)
			batch, _, _ = s.Due(batch[:0], time.Unix(1e6, 0), 1e15)
		}
		// Fill the retransmission history to its steady state first.
		for i := 0; i < 2*4096/n+1; i++ {
			step()
		}
		return testing.AllocsPerRun(200, step)
	}
	one, forty := allocs(1), allocs(40)
	t.Logf("queue and send: %.0f allocs for 1 packet, %.0f for 40", one, forty)
	if forty != one || one > 2 {
		t.Fatalf("a frame costs %.0f allocations for 40 packets and %.0f for 1, want the same and at most 2", forty, one)
	}
}
