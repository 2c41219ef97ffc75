package udpio

import (
	"bytes"
	"testing"
	"time"
)

// FuzzBatchRoundTrip sends a fuzzer-chosen batch through WriteBatch on one
// loopback Socket and reads it back with ReadBatch on another, both
// kernel-batched or both per-packet. Size byte b makes a datagram of 4·b
// bytes (empty, inside the reader's 512-byte slots, exactly one slot, or
// past it), except 255, which makes one over the UDP limit: WriteBatch must
// refuse it with exactly the packets before it sent. Every datagram read
// back is the one sent at that position, never a clipped prefix; one past
// its slot is dropped and counted in Truncated; and the two sockets'
// packet counters agree with what WriteBatch reported.
func FuzzBatchRoundTrip(f *testing.F) {
	f.Add([]byte{10, 20, 30}, uint8(8), false)
	f.Add([]byte{0, 0}, uint8(1), false)                               // empty datagrams
	f.Add([]byte{100, 200, 50, 129}, uint8(4), true)                   // past the slot, per-packet
	f.Add([]byte{127, 128, 129}, uint8(2), false)                      // around the slot size
	f.Add([]byte{127, 128, 129}, uint8(2), true)                       // the same, per-packet
	f.Add(bytes.Repeat([]byte{7}, 2*DefaultBatch+5), uint8(31), false) // over the sendmmsg cap
	f.Add([]byte{5, 6, 255, 7}, uint8(8), false)                       // over the UDP limit mid-batch
	f.Add([]byte{255, 1}, uint8(8), true)                              // over the limit first
	f.Fuzz(func(t *testing.T, sizes []byte, slots uint8, perPacket bool) {
		const slot = 512
		if len(sizes) > 3*DefaultBatch {
			sizes = sizes[:3*DefaultBatch]
		}
		w := listenT(t, Config{DisableBatch: perPacket})
		r := listenT(t, Config{DisableBatch: perPacket})

		ps := make([][]byte, len(sizes))
		fit := len(ps) // the first datagram over the UDP limit, if any
		for i, b := range sizes {
			n := 4 * int(b)
			if b == 255 {
				n = 65508
				if fit == len(ps) {
					fit = i
				}
			}
			ps[i] = make([]byte, n)
			for j := range ps[i] {
				ps[i][j] = byte(i*7 + j)
			}
		}
		sent, err := w.WriteBatch(ps, r.LocalAddr())
		if sent != fit || (err != nil) != (fit < len(ps)) {
			t.Fatalf("WriteBatch of %d (first over the limit at %d) = (%d, %v): not all-or-prefix", len(ps), fit, sent, err)
		}

		ms := make([]Message, 1+int(slots)%MaxBatch)
		for i := range ms {
			ms[i].Buf = make([]byte, slot)
		}
		_ = r.SetReadDeadline(time.Now().Add(5 * time.Second))
		var wantTrunc int64
		for read := 0; read < sent; {
			n, err := r.ReadBatch(ms)
			if err != nil {
				t.Fatalf("ReadBatch after %d of %d: %v", read, sent, err)
			}
			for i := 0; i < n; i++ {
				want := ps[read]
				read++
				// Exactly one slot is past the per-packet path's buffer by its
				// rule (a full buffer may have been clipped); recvmmsg knows.
				over := len(want) > slot || !r.Batched() && len(want) == slot
				if over {
					wantTrunc++
				}
				switch {
				case ms[i].N > 0 && over:
					t.Fatalf("datagram %d of %d bytes delivered as %d through a %d-byte slot", read-1, len(want), ms[i].N, slot)
				case !over && !bytes.Equal(ms[i].Buf[:ms[i].N], want):
					t.Fatalf("datagram %d: read %d bytes, sent %d (or out of order)", read-1, ms[i].N, len(want))
				}
			}
		}
		ws, rs := w.Stats(), r.Stats()
		if ws.WritePackets != int64(sent) || rs.ReadPackets != int64(sent) {
			t.Fatalf("WriteBatch sent %d; the writer counted %d, the reader %d", sent, ws.WritePackets, rs.ReadPackets)
		}
		if rs.Truncated != wantTrunc {
			t.Fatalf("Truncated = %d, want %d", rs.Truncated, wantTrunc)
		}
	})
}
