package livo

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"livo/internal/netem"
	"livo/internal/relaycore"
	"livo/internal/telemetry"
	"livo/internal/transport"
)

// The relay-path chaos harness: an in-memory net.PacketConn whose
// downstream legs (relay → subscriber) each run a seeded Gilbert–Elliott
// loss schedule. A dropped media fragment makes the "receiver" NACK it
// back into the relay's read loop after a short detection delay, and the
// harness times how long the fragment takes to finally land. With the
// retransmission cache enabled the sender should never learn any of this
// happened: every NACK is answered from the relay's own cache.

// lossyKey names one media fragment, mirroring the NACK triple.
type lossyKey struct {
	seq    uint32
	frag   uint16
	stream uint8
}

type lossyPending struct {
	dropT    time.Time
	lastNACK time.Time
}

// lossySub is one subscriber leg: its chaos schedule and the fragments it
// has seen dropped but not yet recovered.
type lossySub struct {
	addr        net.Addr
	chaos       *netem.Chaos
	outstanding map[lossyKey]lossyPending
	dropped     int
	recovered   int
	maxRecovery time.Duration
}

type lossyPkt struct {
	b    []byte
	from net.Addr
}

// lossyRelayConn is the in-memory socket under the relay: injected sender
// traffic and looped-back NACKs arrive through inbox; writes to subscriber
// addresses pass through per-subscriber chaos; writes to the sender are
// counted (a NACK there means the relay failed to absorb a loss locally).
type lossyRelayConn struct {
	local  net.Addr
	sender net.Addr
	inbox  chan lossyPkt
	closed chan struct{}
	once   sync.Once

	mu       sync.Mutex
	deadline time.Time
	dlWake   chan struct{} // closed+replaced on SetReadDeadline: wakes blocked reads

	senderNACKs atomic.Int64

	subMu sync.Mutex
	subs  map[string]*lossySub
	order []*lossySub
}

type lossyTimeout struct{}

func (lossyTimeout) Error() string   { return "i/o timeout" }
func (lossyTimeout) Timeout() bool   { return true }
func (lossyTimeout) Temporary() bool { return true }

func newLossyRelayConn(sender net.Addr, nSubs int, avgLoss float64) *lossyRelayConn {
	c := &lossyRelayConn{
		local:  &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 40999},
		sender: sender,
		inbox:  make(chan lossyPkt, 1<<15),
		closed: make(chan struct{}),
		dlWake: make(chan struct{}),
		subs:   make(map[string]*lossySub, nSubs),
	}
	for i := 0; i < nSubs; i++ {
		s := &lossySub{
			addr:        &net.UDPAddr{IP: net.IPv4(10, 2, byte(i>>8), byte(i)), Port: 42000 + i},
			chaos:       netem.NewChaos(netem.BurstyLossConfig(int64(1000+i), avgLoss)),
			outstanding: make(map[lossyKey]lossyPending),
		}
		c.subs[s.addr.String()] = s
		c.order = append(c.order, s)
	}
	return c
}

// inject delivers one packet to the relay's read loop as if from addr.
func (c *lossyRelayConn) inject(b []byte, from net.Addr) {
	select {
	case c.inbox <- lossyPkt{b: append([]byte(nil), b...), from: from}:
	case <-c.closed:
	}
}

func (c *lossyRelayConn) ReadFrom(p []byte) (int, net.Addr, error) {
	for {
		c.mu.Lock()
		dl := c.deadline
		wake := c.dlWake
		c.mu.Unlock()
		var timeout <-chan time.Time
		var tm *time.Timer
		if !dl.IsZero() {
			d := time.Until(dl)
			if d <= 0 {
				return 0, nil, lossyTimeout{}
			}
			tm = time.NewTimer(d)
			timeout = tm.C
		}
		select {
		case pkt := <-c.inbox:
			if tm != nil {
				tm.Stop()
			}
			return copy(p, pkt.b), pkt.from, nil
		case <-timeout:
			return 0, nil, lossyTimeout{}
		case <-wake:
			// Deadline changed while blocked (real sockets interrupt
			// in-flight reads the same way): re-evaluate it.
			if tm != nil {
				tm.Stop()
			}
		case <-c.closed:
			if tm != nil {
				tm.Stop()
			}
			return 0, nil, net.ErrClosed
		}
	}
}

func (c *lossyRelayConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	if addr.String() == c.sender.String() {
		if len(p) > 0 && p[0] == transport.FBNACK {
			c.senderNACKs.Add(1)
		}
		return len(p), nil
	}
	c.subMu.Lock()
	if s := c.subs[addr.String()]; s != nil {
		c.deliverLocked(s, p)
	}
	c.subMu.Unlock()
	return len(p), nil
}

// WriteBatch exercises the relay's batched writer path.
func (c *lossyRelayConn) WriteBatch(ps [][]byte, addr net.Addr) (int, error) {
	if addr.String() == c.sender.String() {
		for _, p := range ps {
			if len(p) > 0 && p[0] == transport.FBNACK {
				c.senderNACKs.Add(1)
			}
		}
		return len(ps), nil
	}
	c.subMu.Lock()
	if s := c.subs[addr.String()]; s != nil {
		for _, p := range ps {
			c.deliverLocked(s, p)
		}
	}
	c.subMu.Unlock()
	return len(ps), nil
}

// deliverLocked runs one relay→subscriber packet through the leg's chaos
// schedule: drops of media fragments are remembered for NACKing, and a
// delivery that fills a remembered hole closes the recovery timer.
func (c *lossyRelayConn) deliverLocked(s *lossySub, p []byte) {
	var k lossyKey
	media := len(p) >= 11 && p[0] == transport.MediaMagic && p[10]&transport.FlagParity == 0
	if media {
		k = lossyKey{
			seq:    binary.BigEndian.Uint32(p[2:6]),
			frag:   binary.BigEndian.Uint16(p[6:8]),
			stream: p[1],
		}
	}
	now := time.Now()
	if len(s.chaos.Apply(p)) == 0 {
		if media {
			s.dropped++
			if _, dup := s.outstanding[k]; !dup {
				s.outstanding[k] = lossyPending{dropT: now}
			}
		}
		return
	}
	if media {
		if pend, ok := s.outstanding[k]; ok {
			if rec := now.Sub(pend.dropT); rec > s.maxRecovery {
				s.maxRecovery = rec
			}
			s.recovered++
			delete(s.outstanding, k)
		}
	}
}

// sweep emulates receiver loss detection: fragments dropped more than
// detectAfter ago are NACKed (and re-NACKed every renackAfter until they
// land), the NACK arriving at the relay as subscriber feedback.
func (c *lossyRelayConn) sweep(detectAfter, renackAfter time.Duration) {
	now := time.Now()
	type nack struct {
		b    []byte
		from net.Addr
	}
	var out []nack
	c.subMu.Lock()
	for _, s := range c.order {
		for k, pend := range s.outstanding {
			if now.Sub(pend.dropT) < detectAfter {
				continue
			}
			if !pend.lastNACK.IsZero() && now.Sub(pend.lastNACK) < renackAfter {
				continue
			}
			pend.lastNACK = now
			s.outstanding[k] = pend
			out = append(out, nack{b: transport.MarshalNACK(k.stream, k.seq, k.frag), from: s.addr})
		}
	}
	c.subMu.Unlock()
	for _, n := range out {
		c.inject(n.b, n.from)
	}
}

func (c *lossyRelayConn) totals() (outstanding, dropped, recovered int, maxRecovery time.Duration) {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	for _, s := range c.order {
		outstanding += len(s.outstanding)
		dropped += s.dropped
		recovered += s.recovered
		if s.maxRecovery > maxRecovery {
			maxRecovery = s.maxRecovery
		}
	}
	return
}

func (c *lossyRelayConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

func (c *lossyRelayConn) LocalAddr() net.Addr { return c.local }

func (c *lossyRelayConn) SetDeadline(t time.Time) error { return c.SetReadDeadline(t) }

func (c *lossyRelayConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadline = t
	close(c.dlWake) // wake any read blocked on the old deadline
	c.dlWake = make(chan struct{})
	c.mu.Unlock()
	return nil
}

func (c *lossyRelayConn) SetWriteDeadline(time.Time) error { return nil }

// TestRelayRetxRecovery is the loss-recovery acceptance scenario: 64
// subscribers behind independent 2% Gilbert–Elliott loss, a paced sender,
// and NACKing receivers. With the retransmission cache enabled, recovery
// must complete without the sender ever observing the loss — ≥95% of NACKs
// answered from the relay cache, sender-side NACKs ≈ 0 — within the 2×GOP
// recovery bound, and the pool's Live() invariant must hold after Close.
func TestRelayRetxRecovery(t *testing.T) {
	const (
		nSubs  = 64
		frames = 120
		frags  = 8
		gop    = 30
		fps    = 30
	)
	sender := &net.UDPAddr{IP: net.IPv4(10, 3, 0, 1), Port: 41000}
	conn := newLossyRelayConn(sender, nSubs, 0.02)
	relay := NewRelayGroup([]net.PacketConn{conn}, sender, relaycore.Config{
		Shards:    2,
		Telemetry: telemetry.NewRegistry(),
	})
	for _, s := range conn.order {
		relay.Subscribe(s.addr)
	}
	go relay.Run()

	// Receiver loss detection: NACK 5 ms after a hole is seen, re-request
	// every 150 ms while it stays open (lost retransmissions included).
	stopSweep := make(chan struct{})
	var sweepWg sync.WaitGroup
	sweepWg.Add(1)
	go func() {
		defer sweepWg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSweep:
				return
			case <-tick.C:
				conn.sweep(5*time.Millisecond, 150*time.Millisecond)
			}
		}
	}()

	payload := make([]byte, 64)
	for f := uint32(0); f < frames; f++ {
		for g := uint16(0); g < frags; g++ {
			p := transport.Packet{
				Stream: transport.StreamColor, FrameSeq: f, FragIndex: g, FragCount: frags,
				Key: f%gop == 0, Payload: payload,
			}
			conn.inject(append([]byte{transport.MediaMagic}, p.Marshal()...), sender)
		}
		time.Sleep(3 * time.Millisecond)
	}

	// Let recovery run until every dropped fragment has been filled.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if out, _, _, _ := conn.totals(); out == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stopSweep)
	sweepWg.Wait()

	outstanding, dropped, recovered, maxRec := conn.totals()
	if dropped == 0 {
		t.Fatal("chaos injected no loss — the scenario tested nothing")
	}
	if outstanding != 0 {
		t.Fatalf("%d dropped fragments never recovered (%d dropped, %d recovered)",
			outstanding, dropped, recovered)
	}

	st := relay.Stats()
	nacks := st.RetxHits + st.RetxMisses
	if nacks == 0 {
		t.Fatal("no NACKs reached the relay")
	}
	hitRate := float64(st.RetxHits) / float64(nacks)
	if hitRate < 0.95 {
		t.Fatalf("retx cache hit rate = %.3f (%d/%d), want >= 0.95", hitRate, st.RetxHits, nacks)
	}
	if senderNACKs := conn.senderNACKs.Load(); senderNACKs*20 > nacks {
		t.Fatalf("sender observed %d NACKs out of %d — loss was not absorbed locally",
			senderNACKs, nacks)
	}
	// PR 2's recovery bound: a loss must be healed within two GOPs of wall
	// time at the nominal frame rate.
	if bound := 2 * gop * time.Second / fps; maxRec > bound {
		t.Fatalf("slowest recovery took %v, want <= %v (2 GOPs)", maxRec, bound)
	}
	t.Logf("dropped=%d recovered=%d nacks=%d hitRate=%.3f senderNACKs=%d maxRecovery=%v",
		dropped, recovered, nacks, hitRate, conn.senderNACKs.Load(), maxRec)

	if err := relay.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st := relay.Stats(); st.PoolLive != 0 {
		t.Fatalf("PoolLive = %d after close, want 0 (gets == puts)", st.PoolLive)
	}
	conn.Close()
}

// TestRelayLivenessEviction drives the subscriber-liveness rule through the
// public Relay API on the real clock: a subscriber that spoke once and then
// fell silent is evicted by the background sweep once the 2 s window has
// passed, while one that keeps speaking and one that never spoke stay —
// surfacing through Stats, the subscriber count and the primary viewer.
func TestRelayLivenessEviction(t *testing.T) {
	sender := &net.UDPAddr{IP: net.IPv4(10, 3, 0, 1), Port: 41000}
	conn := newLossyRelayConn(sender, 3, 0)
	silent, live, mute := conn.order[0], conn.order[1], conn.order[2]
	relay := NewRelayGroup([]net.PacketConn{conn}, sender, relaycore.Config{
		Shards:    1,
		Telemetry: telemetry.NewRegistry(),
	})
	relay.Subscribe(silent.addr)
	relay.Subscribe(live.addr)
	relay.Subscribe(mute.addr)
	go relay.Run()
	defer relay.Close()

	conn.inject(transport.AppendREMB(nil, 5e6), silent.addr)
	// Wait on the counter as well as the subscriber count: EvictStale
	// counts an eviction before it publishes the removal, so once both
	// read as expected the eviction is complete.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		conn.inject(transport.AppendREMB(nil, 5e6), live.addr)
		if relay.Subscribers() == 2 && relay.Stats().LivenessEvicted == 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := relay.Subscribers(); got != 2 {
		t.Fatalf("subscribers = %d after the silence window, want 2", got)
	}
	if p := relay.Primary(); p == nil || p.String() != live.addr.String() {
		t.Fatalf("primary = %v after eviction, want %v", p, live.addr)
	}
	st := relay.Stats()
	if st.LivenessEvicted != 1 {
		t.Fatalf("LivenessEvicted = %d, want 1", st.LivenessEvicted)
	}
	for _, s := range st.Subs {
		if s.Addr == silent.addr.String() {
			t.Fatalf("the silent subscriber %s is still subscribed", s.Addr)
		}
	}
}

// TestRelayReadError: a socket dying under a running relay stops the read
// loop with the error recorded — Err() reports it and the read-error
// counter increments — instead of the relay silently going quiet.
func TestRelayReadError(t *testing.T) {
	c, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sender, _ := net.ResolveUDPAddr("udp", "127.0.0.1:1")
	reg := telemetry.NewRegistry()
	relay := NewRelayGroup([]net.PacketConn{c}, sender, relaycore.Config{Telemetry: reg})

	done := make(chan struct{})
	go func() {
		relay.Run()
		close(done)
	}()
	// Yank the socket out from under the relay (not via relay.Close, which
	// marks the teardown as expected).
	c.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not exit after the socket died")
	}
	if relay.Err() == nil {
		t.Fatal("Err() = nil after a fatal read error")
	}
	if got := reg.Counter("livo_relay_read_errors_total").Value(); got != 1 {
		t.Fatalf("read-error counter = %d, want 1", got)
	}
	if err := relay.Close(); err != nil {
		t.Fatalf("Close after read error: %v", err)
	}
}

var _ net.PacketConn = (*lossyRelayConn)(nil)
