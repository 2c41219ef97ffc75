package main

import (
	"net"
	"net/netip"
	"sync"
	"time"

	"livo/internal/netem"
	"livo/internal/transport"
	"livo/internal/udpio"
)

// batchConn is the surface of a udpio.Socket that sessions and the relay
// probe for: the tap and the shaper both wrap one and offer one, so either
// can sit between the program and its socket without pushing it off the
// batched path (RecvSession and Relay type-assert ReadBatch/WriteBatch, and
// Relay.WireStats type-asserts Stats).
type batchConn interface {
	net.PacketConn
	ReadBatch(ms []udpio.Message) (int, error)
	WriteBatch(ps [][]byte, addr net.Addr) (int, error)
	Stats() udpio.SocketStats
}

// frameKey identifies one encoding of one frame on the wire.
type frameKey struct {
	seq  uint32
	rung uint8
}

// frameStamp records when a frame's media crossed a conn boundary: done is
// the instant every data fragment of both streams had crossed (zero until
// then), so a retransmission completes a frame a loss left open and a
// duplicate moves nothing.
type frameStamp struct {
	done  time.Time
	frags [2][]bool // [color, depth][FragIndex] crossed
	left  [2]int    // data fragments still missing per stream; -1 = stream unseen
}

// frameLog accumulates frameStamps for one direction of one conn, and the
// frames a receiver asked to have repaired.
type frameLog struct {
	mu     sync.Mutex
	frames map[frameKey]*frameStamp
	nacked map[uint32]bool // frame seqs named by a NACK that crossed
}

func newFrameLog() *frameLog {
	return &frameLog{frames: make(map[frameKey]*frameStamp), nacked: make(map[uint32]bool)}
}

// observe parses one wire datagram: media fragments advance their frame's
// stamp, NACKs mark their frame, parity and other feedback are ignored.
func (l *frameLog) observe(wire []byte, now time.Time) {
	if len(wire) < 2 {
		return
	}
	if wire[0] == transport.FBNACK {
		if _, seq, _, err := transport.UnmarshalNACK(wire); err == nil {
			l.mu.Lock()
			l.nacked[seq] = true
			l.mu.Unlock()
		}
		return
	}
	if wire[0] != transport.MediaMagic {
		return
	}
	p, err := transport.Unmarshal(wire[1:])
	if err != nil || p.Parity {
		return
	}
	si := 0
	if p.Stream == transport.StreamDepth {
		si = 1
	}
	k := frameKey{p.FrameSeq, p.Rung}
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.frames[k]
	if st == nil {
		st = &frameStamp{left: [2]int{-1, -1}}
		l.frames[k] = st
	}
	if st.left[si] < 0 {
		st.frags[si] = make([]bool, p.FragCount)
		st.left[si] = int(p.FragCount)
	}
	if int(p.FragIndex) >= len(st.frags[si]) || st.frags[si][p.FragIndex] {
		return
	}
	st.frags[si][p.FragIndex] = true
	st.left[si]--
	if st.left[0] == 0 && st.left[1] == 0 {
		st.done = now
	}
}

// doneAt returns when frame k finished crossing, or false if it never did.
func (l *frameLog) doneAt(k frameKey) (time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.frames[k]
	if st == nil || st.done.IsZero() {
		return time.Time{}, false
	}
	return st.done, true
}

// rungOf returns the rung on which frame seq finished crossing.
func (l *frameLog) rungOf(seq uint32) (uint8, bool) {
	for rung := uint8(0); rung < transport.MaxRungs; rung++ {
		if _, ok := l.doneAt(frameKey{seq, rung}); ok {
			return rung, true
		}
	}
	return 0, false
}

// tap is a pass-through conn that stamps media frames as they cross it. Reads
// and writes are logged separately; egress is logged per destination, and
// only for the destinations asked for, which keeps the relay's 64-way fan-out
// from being parsed 64 times.
type tap struct {
	batchConn
	in  *frameLog
	any *frameLog                    // egress to every destination; nil when watching
	out map[netip.AddrPort]*frameLog // egress per watched destination
}

// newTap wraps c. With no watch addresses all egress shares one log.
func newTap(c batchConn, watch ...net.Addr) *tap {
	t := &tap{batchConn: c, in: newFrameLog()}
	if len(watch) == 0 {
		t.any = newFrameLog()
		return t
	}
	t.out = make(map[netip.AddrPort]*frameLog, len(watch))
	for _, a := range watch {
		t.out[addrKey(a)] = newFrameLog()
	}
	return t
}

// addrKey is a UDP address as a map key, made without allocating (the relay
// asks once per subscriber per packet).
func addrKey(a net.Addr) netip.AddrPort {
	if u, ok := a.(*net.UDPAddr); ok {
		return u.AddrPort()
	}
	return netip.AddrPort{}
}

// egress returns the log for packets sent to addr (nil = not watched).
func (t *tap) egress(addr net.Addr) *frameLog {
	if t.any != nil {
		return t.any
	}
	return t.out[addrKey(addr)]
}

func (t *tap) ReadFrom(p []byte) (int, net.Addr, error) {
	n, addr, err := t.batchConn.ReadFrom(p)
	if err == nil {
		t.in.observe(p[:n], time.Now())
	}
	return n, addr, err
}

func (t *tap) ReadBatch(ms []udpio.Message) (int, error) {
	n, err := t.batchConn.ReadBatch(ms)
	now := time.Now()
	for i := 0; i < n; i++ {
		if ms[i].N > 0 {
			t.in.observe(ms[i].Buf[:ms[i].N], now)
		}
	}
	return n, err
}

func (t *tap) WriteTo(p []byte, addr net.Addr) (int, error) {
	n, err := t.batchConn.WriteTo(p, addr)
	if l := t.egress(addr); l != nil && err == nil {
		l.observe(p, time.Now())
	}
	return n, err
}

func (t *tap) WriteBatch(ps [][]byte, addr net.Addr) (int, error) {
	n, err := t.batchConn.WriteBatch(ps, addr)
	if l := t.egress(addr); l != nil {
		now := time.Now()
		for _, p := range ps[:n] {
			l.observe(p, now)
		}
	}
	return n, err
}

// shaper impairs a conn's egress: media packets are dropped on a seeded
// Gilbert–Elliott schedule and every surviving packet (feedback included)
// leaves after a fixed one-way delay. Ingress passes through, so a link is
// shaped by wrapping both ends.
type shaper struct {
	batchConn
	delay time.Duration

	mu    sync.Mutex
	loss  *netem.Chaos // nil = lossless
	queue chan delayed
	wg    sync.WaitGroup
}

type delayed struct {
	at   time.Time
	wire []byte
	addr net.Addr
}

// newShaper wraps c; lossPct 0 disables loss. Close stops the delay line.
func newShaper(c batchConn, seed int64, lossPct float64, delay time.Duration) *shaper {
	s := &shaper{batchConn: c, delay: delay}
	if lossPct > 0 {
		s.loss = netem.NewChaos(netem.BurstyLossConfig(seed, lossPct/100))
	}
	if delay > 0 {
		// A second of packets at the benchmark's highest rate: the delay
		// line never holds more than delay's worth, so a send never blocks.
		s.queue = make(chan delayed, 4096)
		s.wg.Add(1)
		go s.run()
	}
	return s
}

// run releases queued packets in order once their delay has passed.
func (s *shaper) run() {
	defer s.wg.Done()
	for d := range s.queue {
		if wait := time.Until(d.at); wait > 0 {
			time.Sleep(wait)
		}
		_, _ = s.batchConn.WriteTo(d.wire, d.addr) // a closed socket at teardown is expected
	}
}

func (s *shaper) WriteTo(p []byte, addr net.Addr) (int, error) {
	if s.loss != nil && len(p) > 0 && p[0] == transport.MediaMagic {
		s.mu.Lock()
		lost := s.loss.Apply(p) == nil
		s.mu.Unlock()
		if lost {
			return len(p), nil
		}
	}
	if s.queue == nil {
		return s.batchConn.WriteTo(p, addr)
	}
	// Callers reuse their buffers (the session reflects pings in place).
	s.queue <- delayed{time.Now().Add(s.delay), append([]byte(nil), p...), addr}
	return len(p), nil
}

func (s *shaper) WriteBatch(ps [][]byte, addr net.Addr) (int, error) {
	for i, p := range ps {
		if _, err := s.WriteTo(p, addr); err != nil {
			return i, err
		}
	}
	return len(ps), nil
}

// Close drains the delay line, then closes the wrapped conn.
func (s *shaper) Close() error {
	if s.queue != nil {
		close(s.queue)
		s.wg.Wait()
	}
	return s.batchConn.Close()
}

// dropRate reports the share of media packets the schedule consumed.
func (s *shaper) dropRate() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.loss == nil || s.loss.Sent() == 0 {
		return 0
	}
	return float64(s.loss.Dropped()) / float64(s.loss.Sent())
}
