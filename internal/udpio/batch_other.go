//go:build !linux || (!amd64 && !arm64)

package udpio

import "net"

// Portable fallback: no kernel batching. Socket.batched stays false, so
// WriteBatch degrades to a per-packet loop and ReadBatch to a single
// ReadFrom — same API, same all-or-prefix and blocking contracts. These
// bodies exist only to satisfy the compiler; the dispatchers in udpio.go
// never reach them with batched == false, but they behave correctly
// anyway.

const batchSupported = false

type osSocket struct{}

func (s *Socket) initOS() {}

func (s *Socket) sendBatch(ps [][]byte, addr net.Addr) (int, error) {
	return s.writeSeq(ps, addr)
}

func (s *Socket) recvBatch(ms []Message) (int, error) {
	return readOne(s, ms, &s.truncated)
}
