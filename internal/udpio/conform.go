package udpio

import (
	"bytes"
	"fmt"
	"net"
)

// ConformWriter is the batch-writer shape under conformance test. It
// matches relaycore.BatchWriter structurally, so the helper needs no
// import edge.
type ConformWriter interface {
	WriteTo(p []byte, addr net.Addr) (n int, err error)
	WriteBatch(ps [][]byte, addr net.Addr) (n int, err error)
}

// ConformConfig tells ConformBatchWriter how to observe the transport.
type ConformConfig struct {
	// Recv returns the next datagram delivered to the test address, in
	// order.
	Recv func() ([]byte, error)
	// MaxDatagram is the transport's datagram size limit (65507 for real
	// UDP).
	MaxDatagram int
}

// ConformBatchWriter exercises the relaycore.BatchWriter contract against
// bw, writing to addr: empty batches are free, a batch is delivered in
// order to one destination, batches beyond the per-syscall cap still
// deliver completely, and on error exactly the first n packets were sent
// (all-or-prefix). Returns the first violation found.
func ConformBatchWriter(bw ConformWriter, addr net.Addr, cfg ConformConfig) error {
	// Empty batch: no packets, no error, no syscall obligation.
	if n, err := bw.WriteBatch(nil, addr); n != 0 || err != nil {
		return fmt.Errorf("empty batch: got (%d, %v), want (0, nil)", n, err)
	}

	check := func(ps [][]byte, label string) error {
		n, err := bw.WriteBatch(ps, addr)
		if err != nil || n != len(ps) {
			return fmt.Errorf("%s: got (%d, %v), want (%d, nil)", label, n, err, len(ps))
		}
		for i, want := range ps {
			got, err := cfg.Recv()
			if err != nil {
				return fmt.Errorf("%s: recv packet %d/%d: %v", label, i+1, len(ps), err)
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("%s: packet %d: delivered %d bytes, want %d (or out of order)",
					label, i, len(got), len(want))
			}
		}
		return nil
	}

	mk := func(count, size int) [][]byte {
		ps := make([][]byte, count)
		for i := range ps {
			p := make([]byte, size+i%7)
			for j := range p {
				p[j] = byte(i + j)
			}
			ps[i] = p
		}
		return ps
	}

	if err := check(mk(1, 9), "single packet"); err != nil {
		return err
	}
	if err := check(mk(5, 100), "five packets"); err != nil {
		return err
	}
	// More packets than one syscall can carry: the writer must chunk and
	// still deliver everything in order.
	if err := check(mk(2*DefaultBatch+3, 64), "over-cap batch"); err != nil {
		return err
	}

	// All-or-prefix on error: a datagram over the transport limit must
	// fail, and exactly the packets before it must have been sent.
	ps := mk(4, 200)
	ps[2] = make([]byte, cfg.MaxDatagram+1)
	n, err := bw.WriteBatch(ps, addr)
	if err == nil {
		return fmt.Errorf("oversize batch: no error for a %d-byte datagram", len(ps[2]))
	}
	if n != 2 {
		return fmt.Errorf("oversize batch: got n=%d, want 2 (all-or-prefix)", n)
	}
	for i := 0; i < 2; i++ {
		got, rerr := cfg.Recv()
		if rerr != nil {
			return fmt.Errorf("oversize batch: recv prefix packet %d: %v", i, rerr)
		}
		if !bytes.Equal(got, ps[i]) {
			return fmt.Errorf("oversize batch: prefix packet %d mismatch (%d bytes)", i, len(got))
		}
	}
	return nil
}
