// Package udpio is the kernel-batched UDP socket layer for the relay wire
// path: sendmmsg-backed batch writes (one syscall drains a whole writer
// ring batch), recvmmsg-backed batch reads (one syscall fills a slice of
// packet buffers), and SO_REUSEPORT socket groups that bind one socket per
// relay shard so kernel flow steering replaces a single-reader ingest loop.
//
// The implementation is stdlib-only: raw syscalls reach the fd through
// net.UDPConn.SyscallConn, so the runtime poller still owns readiness —
// deadlines and Close unblock a blocked batch call exactly as they unblock
// ReadFrom. Kernel batching compiles on linux/amd64 and linux/arm64;
// every other platform (and Config.DisableBatch) takes a per-packet
// fallback behind the same API and contracts, so callers never branch on
// GOOS. Socket satisfies net.PacketConn and relaycore.BatchWriter.
package udpio

import (
	"fmt"
	"net"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// DefaultBatch is the per-syscall packet cap: it matches the relay
	// writer ring's drain unit (relaycore's writerBatch), so one ring
	// drain is one sendmmsg.
	DefaultBatch = 32
	// MaxBatch bounds the scratch arrays a Socket pre-allocates.
	MaxBatch = 64
	// DefaultBufferBytes sizes SO_RCVBUF/SO_SNDBUF for about a second of
	// media at the target rate (4K tiled stream plus retransmissions),
	// with fan-out headroom on the send side. The kernel clamps the
	// request to rmem_max/wmem_max — Stats reports what was granted.
	DefaultBufferBytes = 4 << 20
)

// Config parameterizes a Socket. The zero value picks production defaults.
type Config struct {
	// RecvBuf / SendBuf request SO_RCVBUF / SO_SNDBUF in bytes. Zero
	// requests DefaultBufferBytes; negative leaves the kernel default
	// untouched. The kernel may grant less (see SocketStats).
	RecvBuf int
	SendBuf int
	// DisableBatch forces per-packet syscalls even where kernel batching
	// is available — the A/B baseline the tests hold the batched path
	// against and a portability escape hatch (-udp-batch=false).
	DisableBatch bool

	// batch is the packets-per-syscall cap (default DefaultBatch, capped at
	// MaxBatch); only tests lower it.
	batch int
}

// Message is one datagram slot in a ReadBatch call. The caller provides
// Buf; the socket fills N and Addr. Addr points into per-socket scratch
// and is valid only until the next ReadBatch on the same socket — copy it
// (or key it, relaycore.KeyOf copies) before the next call. A slot with
// N == 0 after a successful ReadBatch carried an empty or truncated
// datagram and should be skipped.
type Message struct {
	Buf  []byte
	N    int
	Addr net.Addr
}

// BatchReader is the recvmmsg-shaped read interface: fill up to len(ms)
// messages with one kernel visit, blocking until at least one datagram
// (or an error) is available. Implementations may return fewer than
// len(ms) messages; n is the number of filled slots.
type BatchReader interface {
	ReadBatch(ms []Message) (n int, err error)
}

// SocketStats snapshots a Socket's syscall accounting — the numerator and
// denominator of the syscalls-per-packet figure (Relay.WireStats, the
// benchmark's udpio.*_syscalls_per_pkt).
type SocketStats struct {
	ReadSyscalls  int64 // kernel visits on the read side (incl. EAGAIN retries)
	ReadPackets   int64 // datagrams delivered to the caller
	WriteSyscalls int64 // kernel visits on the write side
	WritePackets  int64 // datagrams handed to the kernel
	Truncated     int64 // datagrams dropped because they exceeded the buffer
	RecvBufBytes  int   // SO_RCVBUF the kernel granted (0 = unknown/untouched)
	SendBufBytes  int   // SO_SNDBUF the kernel granted
	Batched       bool  // kernel batching active (false = per-packet fallback)
}

// Socket wraps a *net.UDPConn with batched I/O and syscall accounting. It
// satisfies net.PacketConn, relaycore.BatchWriter, and BatchReader.
//
// Concurrency: ReadBatch/ReadFrom are single-reader (one ingest loop per
// socket — the reuseport group gives each shard its own socket instead of
// sharing one). WriteTo/WriteBatch are safe for concurrent writers.
type Socket struct {
	conn    *net.UDPConn
	rc      syscall.RawConn
	batch   int
	batched bool

	readSyscalls  atomic.Int64
	readPkts      atomic.Int64
	writeSyscalls atomic.Int64
	writePkts     atomic.Int64
	truncated     atomic.Int64

	rcvbuf, sndbuf int

	os osSocket // platform batching state (scratch arrays on linux)
}

// Wrap adopts an existing UDP conn. The caller must not keep using the
// conn directly (the Socket's counters would miss those ops).
func Wrap(c *net.UDPConn, cfg Config) (*Socket, error) {
	rc, err := c.SyscallConn()
	if err != nil {
		return nil, err
	}
	b := cfg.batch
	if b <= 0 {
		b = DefaultBatch
	}
	if b > MaxBatch {
		b = MaxBatch
	}
	s := &Socket{
		conn:    c,
		rc:      rc,
		batch:   b,
		batched: batchSupported && !cfg.DisableBatch,
	}
	s.rcvbuf, s.sndbuf = setSocketBuffers(c, rc, cfg)
	s.initOS()
	return s, nil
}

// Listen binds one UDP socket on address (e.g. "127.0.0.1:0").
func Listen(network, address string, cfg Config) (*Socket, error) {
	pc, err := net.ListenPacket(network, address)
	if err != nil {
		return nil, err
	}
	uc, ok := pc.(*net.UDPConn)
	if !ok {
		pc.Close()
		return nil, fmt.Errorf("udpio: %s is not a UDP network", network)
	}
	return Wrap(uc, cfg)
}

// ListenGroup binds n sockets to the same address with SO_REUSEPORT, so
// the kernel steers inbound flows across them — one socket per relay
// shard. On platforms without SO_REUSEPORT (or for n <= 1) it returns a
// single socket; callers size their ingest loops off len(result).
func ListenGroup(network, address string, n int, cfg Config) ([]*Socket, error) {
	if n <= 1 || !reusePortSupported {
		s, err := Listen(network, address, cfg)
		if err != nil {
			return nil, err
		}
		return []*Socket{s}, nil
	}
	return listenReusePort(network, address, n, cfg)
}

// setSocketBuffers applies the SO_RCVBUF/SO_SNDBUF requests and reads back
// what the kernel granted (0 where the platform can't report it).
func setSocketBuffers(c *net.UDPConn, rc syscall.RawConn, cfg Config) (rcv, snd int) {
	r, w := cfg.RecvBuf, cfg.SendBuf
	if r == 0 {
		r = DefaultBufferBytes
	}
	if w == 0 {
		w = DefaultBufferBytes
	}
	if r > 0 {
		_ = c.SetReadBuffer(r)
		rcv = grantedRecvBuffer(rc)
	}
	if w > 0 {
		_ = c.SetWriteBuffer(w)
		snd = grantedSendBuffer(rc)
	}
	return rcv, snd
}

// ReadFrom reads one datagram (net.PacketConn).
func (s *Socket) ReadFrom(p []byte) (int, net.Addr, error) {
	n, addr, err := s.conn.ReadFrom(p)
	s.readSyscalls.Add(1)
	if err == nil {
		s.readPkts.Add(1)
	}
	return n, addr, err
}

// WriteTo writes one datagram (net.PacketConn).
func (s *Socket) WriteTo(p []byte, addr net.Addr) (int, error) {
	n, err := s.conn.WriteTo(p, addr)
	s.writeSyscalls.Add(1)
	if err == nil {
		s.writePkts.Add(1)
	}
	return n, err
}

// WriteBatch sends every packet in ps to one destination, one sendmmsg
// per batch-sized chunk where supported. The contract is all-or-prefix:
// on error, exactly the first n packets reached the kernel and the rest
// were not attempted (relaycore.BatchWriter).
func (s *Socket) WriteBatch(ps [][]byte, addr net.Addr) (int, error) {
	if len(ps) == 0 {
		return 0, nil
	}
	if !s.batched || len(ps) == 1 {
		return s.writeSeq(ps, addr)
	}
	return s.sendBatch(ps, addr)
}

// writeSeq is the per-packet WriteBatch fallback.
func (s *Socket) writeSeq(ps [][]byte, addr net.Addr) (int, error) {
	for i, p := range ps {
		if _, err := s.WriteTo(p, addr); err != nil {
			return i, err
		}
	}
	return len(ps), nil
}

// ReadBatch fills up to len(ms) message slots with one recvmmsg where
// supported; the fallback reads a single datagram into ms[0]. It blocks
// until at least one datagram arrives, the deadline passes, or the socket
// closes.
func (s *Socket) ReadBatch(ms []Message) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	if !s.batched {
		return readOne(s, ms, &s.truncated)
	}
	return s.recvBatch(ms)
}

// readOne is ReadBatch without kernel batching: one datagram into ms[0].
// ReadFrom clips a datagram longer than its buffer without saying so, so
// one that fills the buffer is taken as clipped: dropped (N == 0) and
// counted, like MSG_TRUNC on the batched path — never routed short.
func readOne(c net.PacketConn, ms []Message, truncated *atomic.Int64) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	n, addr, err := c.ReadFrom(ms[0].Buf)
	if err != nil {
		return 0, err
	}
	if n == len(ms[0].Buf) {
		truncated.Add(1)
		n = 0
	}
	ms[0].N, ms[0].Addr = n, addr
	return 1, nil
}

// Reader returns the batch-read side of c, so a read loop is written once
// against ReadBatch: c itself when it already batches (a Socket), else a
// per-packet adapter with the same slot, blocking and truncation
// contracts, whose Stats carry its truncation count.
func Reader(c net.PacketConn) BatchReader {
	if br, ok := c.(BatchReader); ok {
		return br
	}
	return &packetReader{c: c}
}

type packetReader struct {
	c         net.PacketConn
	truncated atomic.Int64
}

func (r *packetReader) ReadBatch(ms []Message) (int, error) {
	return readOne(r.c, ms, &r.truncated)
}

func (r *packetReader) Stats() SocketStats { return SocketStats{Truncated: r.truncated.Load()} }

// Batched reports whether kernel batching is active on this socket.
func (s *Socket) Batched() bool { return s.batched }

// Stats snapshots the socket's syscall accounting.
func (s *Socket) Stats() SocketStats {
	return SocketStats{
		ReadSyscalls:  s.readSyscalls.Load(),
		ReadPackets:   s.readPkts.Load(),
		WriteSyscalls: s.writeSyscalls.Load(),
		WritePackets:  s.writePkts.Load(),
		Truncated:     s.truncated.Load(),
		RecvBufBytes:  s.rcvbuf,
		SendBufBytes:  s.sndbuf,
		Batched:       s.batched,
	}
}

// Close closes the underlying conn, unblocking any in-flight read.
func (s *Socket) Close() error { return s.conn.Close() }

// LocalAddr returns the bound address.
func (s *Socket) LocalAddr() net.Addr { return s.conn.LocalAddr() }

// SetDeadline, SetReadDeadline, SetWriteDeadline delegate to the conn;
// a past deadline unblocks in-flight batch calls (teardown poke).
func (s *Socket) SetDeadline(t time.Time) error      { return s.conn.SetDeadline(t) }
func (s *Socket) SetReadDeadline(t time.Time) error  { return s.conn.SetReadDeadline(t) }
func (s *Socket) SetWriteDeadline(t time.Time) error { return s.conn.SetWriteDeadline(t) }
