package livo

import (
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"livo/internal/codec/vcodec"
	"livo/internal/core"
	"livo/internal/frametrace"
	"livo/internal/relaycore"
	"livo/internal/telemetry"
	"livo/internal/transport"
	"livo/internal/udpio"
)

// mediaMagic distinguishes media packets from feedback on the same socket.
const mediaMagic = transport.MediaMagic

// SendSession streams one direction of a live conference: it encodes camera
// views with the LiVo pipeline and sends them to a remote receiver over a
// packet connection, processing feedback (poses, REMB, NACK, PLI) on the
// reverse path. A two-way conference runs one SendSession and one
// RecvSession per site (§3.1).
type SendSession struct {
	sender *core.Sender
	conn   net.PacketConn
	remote net.Addr
	fec    bool
	ladder bool
	trace  *frametrace.Ledger // cfg.Sender.Trace (nil disables stamps)

	rateBps atomic.Uint64 // current send rate from receiver REMB
	paceQ   chan [][]byte // one frame's wire packets per entry, in send order
	// pliArmed guards against PLI storms: once a PLI forces a key frame,
	// further PLIs are ignored until that IDR is actually encoded (§A.1).
	pliArmed atomic.Bool

	mu        sync.Mutex
	history   map[retxKey][]byte // recent packets for NACK retransmission
	order     []retxKey
	start     time.Time
	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	err       atomic.Value

	frames    atomic.Int64
	pkts      atomic.Int64
	bytesSent atomic.Int64
	paceDrops atomic.Int64
	retx      atomic.Int64
	nacksRecv atomic.Int64
	plisRecv  atomic.Int64

	unregister func() // removes the session's series (DESIGN.md §6)
}

type retxKey struct {
	stream uint8
	seq    uint32
	frag   uint16
	rung   uint8
}

// SendSessionConfig configures a SendSession.
type SendSessionConfig struct {
	Sender SenderConfig
	// InitialRateBps seeds the send rate before the first REMB (default
	// 20 Mbps).
	InitialRateBps float64
	// EnableFEC adds one XOR parity packet per group of 8 fragments, so
	// single losses are repaired at the receiver without a NACK round
	// trip (transport/fec.go; loss-robustness beyond the paper's
	// NACK/PLI, §5 future work).
	EnableFEC bool
}

// NewSendSession builds a sending session bound to conn, targeting remote.
// The session takes over reading from conn (feedback).
func NewSendSession(conn net.PacketConn, remote net.Addr, cfg SendSessionConfig) (*SendSession, error) {
	sender, err := core.NewSender(cfg.Sender)
	if err != nil {
		return nil, err
	}
	if cfg.InitialRateBps <= 0 {
		cfg.InitialRateBps = 20e6
	}
	s := &SendSession{
		sender:  sender,
		conn:    conn,
		remote:  remote,
		fec:     cfg.EnableFEC,
		ladder:  cfg.Sender.Ladder,
		trace:   cfg.Sender.Trace,
		history: make(map[retxKey][]byte),
		start:   time.Now(),
		closed:  make(chan struct{}),
	}
	tel := cfg.Sender.Telemetry
	if tel == nil {
		tel = telemetry.Default
	}
	s.unregister = tel.Funcs(map[string]func() int64{
		"livo_send_packets_total": s.pkts.Load,
		"livo_send_bytes_total":   s.bytesSent.Load,
		"livo_pace_drops_total":   s.paceDrops.Load,
		"livo_retx_total":         s.retx.Load,
		"livo_pli_received_total": s.plisRecv.Load,
	}, map[string]func() float64{"livo_send_rate_bps": s.Rate})
	s.rateBps.Store(uint64(cfg.InitialRateBps))
	// About a second of frames at 30 fps: a pacer that far behind is not
	// catching up, and the frames after it are dropped whole.
	s.paceQ = make(chan [][]byte, 32)
	s.wg.Add(2)
	go s.feedbackLoop()
	go s.paceLoop()
	return s, nil
}

// paceLoop transmits queued frames at twice the current rate, WebRTC-style,
// so queues (and the receiver's delay-gradient estimator) stay sane. It
// keeps an absolute schedule rather than sleeping after each send, so a
// timer that fires late shortens the next wait instead of adding to the
// frame's wire time, and every packet due at a wake-up leaves in one
// WriteBatch: one sendmmsg on a udpio socket.
func (s *SendSession) paceLoop() {
	defer s.wg.Done()
	// One timer for the life of the loop. It is re-armed only after its
	// channel has been received from, which is what makes Reset safe.
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	var next time.Time // the queue head's send time
	for {
		var wires [][]byte
		select {
		case <-s.closed:
			return
		case wires = <-s.paceQ:
		}
		for len(wires) > 0 {
			now := time.Now()
			var n int
			n, next = transport.PaceDue(next, now, s.Rate(), wires)
			if n == 0 {
				timer.Reset(next.Sub(now))
				select {
				case <-s.closed:
					return
				case <-timer.C:
				}
				continue
			}
			if _, err := relaycore.WriteBatch(s.conn, wires[:n], s.remote); err != nil {
				s.err.Store(fmt.Errorf("livo: send: %w", err))
				return
			}
			wires = wires[n:]
		}
	}
}

// now returns seconds since session start.
func (s *SendSession) now() float64 { return time.Since(s.start).Seconds() }

// Rate returns the current send rate (bits/second).
func (s *SendSession) Rate() float64 { return float64(s.rateBps.Load()) }

// SendViews runs the sender pipeline on one set of camera views and
// transmits the encoded frame.
func (s *SendSession) SendViews(views []RGBDFrame) (*EncodedFrame, error) {
	if err := s.sendable(); err != nil {
		return nil, err
	}
	enc, err := s.sender.ProcessFrame(views, s.Rate())
	if err != nil {
		return nil, err
	}
	if enc.Color.Key && enc.Depth.Key {
		// The refresh went out; accept the next PLI again.
		s.pliArmed.Store(false)
	}
	ts := uint64(s.now() * 1e6)
	var pkts []transport.Packet
	if enc.ColorRungs != nil {
		// Ladder mode: every rung of both streams goes on the wire once; the
		// relay filters per subscriber (DESIGN.md §8). FEC groups are built
		// per rung so a parity packet never spans encodings.
		for _, cp := range enc.ColorRungs {
			rp := transport.PacketizeRung(transport.StreamColor, enc.Seq, cp.Key, cp.Rung, ts, cp.Data)
			if s.fec {
				rp = append(rp, transport.BuildParity(rp)...)
			}
			pkts = append(pkts, rp...)
		}
		for _, dp := range enc.DepthRungs {
			rp := transport.PacketizeRung(transport.StreamDepth, enc.Seq, dp.Key, dp.Rung, ts, dp.Data)
			if s.fec {
				rp = append(rp, transport.BuildParity(rp)...)
			}
			pkts = append(pkts, rp...)
		}
	} else {
		colorPkts := transport.Packetize(transport.StreamColor, enc.Seq, enc.Color.Key, ts, enc.Color.Data)
		depthPkts := transport.Packetize(transport.StreamDepth, enc.Seq, enc.Depth.Key, ts, enc.Depth.Data)
		pkts = append(colorPkts, depthPkts...)
		if s.fec {
			pkts = append(pkts, transport.BuildParity(colorPkts)...)
			pkts = append(pkts, transport.BuildParity(depthPkts)...)
		}
	}
	s.trace.StampNow(frametrace.HopPacketize, 0, enc.Seq, frametrace.NoSub)
	// Handing the frame to the pacer is part of the trace's uplink stage.
	if err := s.enqueue(pkts); err != nil {
		return nil, err
	}
	s.frames.Add(1)
	return enc, nil
}

// errSendClosed is what SendViews returns once Close has been called.
var errSendClosed = fmt.Errorf("livo: send session: %w", net.ErrClosed)

// sendable reports why the session can take no more frames: Close was
// called, or a background goroutine hit a terminal error.
func (s *SendSession) sendable() error {
	select {
	case <-s.closed:
		return errSendClosed
	default:
	}
	return s.Err()
}

// enqueue marshals one frame's packets — every rung, parity included —
// MediaMagic prefix in place, into a single frame-sized slab, hands them to
// the pacer as one queue entry and records them in the retransmission
// history, which keeps sub-slices of the slab.
func (s *SendSession) enqueue(pkts []transport.Packet) error {
	if err := s.sendable(); err != nil {
		return err
	}
	size := 0
	for i := range pkts {
		size += 1 + transport.HeaderSize + len(pkts[i].Payload)
	}
	slab := make([]byte, 0, size)
	wires := make([][]byte, len(pkts))
	for i := range pkts {
		start := len(slab)
		slab = pkts[i].AppendMarshal(append(slab, mediaMagic))
		wires[i] = slab[start:len(slab):len(slab)]
	}
	select {
	case s.paceQ <- wires:
		s.pkts.Add(int64(len(pkts)))
		s.bytesSent.Add(int64(size))
	default:
		// The pacer is a second of frames behind. Part of a frame is of no
		// use to the receiver, so the new frame is dropped whole; NACKs can
		// still be answered from history if it mattered.
		s.paceDrops.Add(int64(len(pkts)))
	}
	// Keep roughly one second of history for NACKs (a ladder triples the
	// packet rate, so it gets a proportionally deeper window).
	limit := 4096
	if s.ladder {
		limit = 8192
	}
	s.mu.Lock()
	for i := range pkts {
		p := &pkts[i]
		k := retxKey{p.Stream, p.FrameSeq, p.FragIndex, p.Rung}
		if _, exists := s.history[k]; !exists {
			s.history[k] = wires[i]
			s.order = append(s.order, k)
		}
	}
	for len(s.order) > limit {
		delete(s.history, s.order[0])
		s.order = s.order[1:]
	}
	s.mu.Unlock()
	return nil
}

// feedbackLoop processes reverse-path messages until Close.
func (s *SendSession) feedbackLoop() {
	defer s.wg.Done()
	buf := make([]byte, 65536)
	for {
		// Blocking read — no per-iteration SetReadDeadline syscall (the
		// old loop paid one per 50 ms even when idle). Close closes
		// s.closed first and then pokes a past read deadline, so the
		// error that unblocks us is classified as teardown here.
		n, _, err := s.conn.ReadFrom(buf)
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			s.err.Store(fmt.Errorf("livo: feedback read: %w", err))
			return
		}
		if n == 0 {
			continue
		}
		s.handleFeedback(buf[:n])
	}
}

func (s *SendSession) handleFeedback(b []byte) {
	if len(b) == 0 {
		return
	}
	switch b[0] {
	case transport.FBPose:
		if t, pose, err := unmarshalPose(b); err == nil {
			s.sender.ObservePose(t, pose)
		}
	case transport.FBREMB:
		if bps, err := transport.UnmarshalREMB(b); err == nil && bps > 0 {
			s.rateBps.Store(uint64(bps))
		}
	case transport.FBNACK:
		if stream, seq, frag, err := transport.UnmarshalNACK(b); err == nil {
			s.nacksRecv.Add(1)
			// The wire NACK carries no rung id, so resend every rung's copy
			// of the fragment that exists in history. Direct receivers only
			// ever buffered one rung's fragments for that slot; through a
			// relay, the rung-aware retransmission cache or the subscriber
			// filter delivers just the copy the subscriber is watching.
			var wires [][]byte
			s.mu.Lock()
			for rung := uint8(0); rung < transport.MaxRungs; rung++ {
				if w := s.history[retxKey{stream, seq, frag, rung}]; w != nil {
					wires = append(wires, w)
				}
			}
			s.mu.Unlock()
			for _, wire := range wires {
				s.retx.Add(1)
				_, _ = s.conn.WriteTo(wire, s.remote)
			}
		}
	case transport.FBPLI:
		s.plisRecv.Add(1)
		// Refresh-in-flight guard: during an outage the receiver re-sends
		// PLIs until the IDR lands; only the first arms a key frame.
		if s.pliArmed.CompareAndSwap(false, true) {
			s.sender.ForceKeyFrame()
		}
	case transport.FBPong:
		// Dead: a SendSession sends no pings, so no pong ever answers one,
		// and Sender.ObserveRTT (which widens the culling frustum's
		// look-ahead) is never fed in a live session. Probing from this side
		// changes what is culled and is its own change (ROADMAP).
	case transport.FBPing:
		// Reflect the receiver's probe: its RTT sizes the repair deadline.
		b[0] = transport.FBPong
		_, _ = s.conn.WriteTo(b, s.remote)
	}
}

// Err returns the first asynchronous error hit by the session's background
// goroutines (pacer write failure, feedback read failure), or nil while
// healthy. Once non-nil the session is dead: SendViews returns the same
// error and no further packets leave the socket.
func (s *SendSession) Err() error {
	if e := s.err.Load(); e != nil {
		return e.(error)
	}
	return nil
}

// SendStats is a point-in-time snapshot of one sending session.
type SendStats struct {
	// Frames counts frames fully processed and handed to the pacer.
	Frames int64
	// Packets and Bytes count wire packets/bytes enqueued for transmission.
	Packets int64
	Bytes   int64
	// PaceDrops counts packets discarded because the pacer queue was full.
	// A frame is dropped whole — part of one is of no use to the receiver —
	// so this is the packet count of the frames dropped.
	PaceDrops int64
	// Retransmits counts NACK-triggered retransmissions served from history.
	Retransmits int64
	// NACKsReceived and PLIsReceived count feedback messages processed.
	NACKsReceived int64
	PLIsReceived  int64
	// RateBps is the current REMB-driven send rate.
	RateBps float64
	// Err is the session's terminal async error, nil while healthy.
	Err error
}

// Stats snapshots the session's counters (safe from any goroutine).
func (s *SendSession) Stats() SendStats {
	return SendStats{
		Frames:        s.frames.Load(),
		Packets:       s.pkts.Load(),
		Bytes:         s.bytesSent.Load(),
		PaceDrops:     s.paceDrops.Load(),
		Retransmits:   s.retx.Load(),
		NACKsReceived: s.nacksRecv.Load(),
		PLIsReceived:  s.plisRecv.Load(),
		RateBps:       s.Rate(),
		Err:           s.Err(),
	}
}

// Close stops the session. The connection is not closed (the caller owns
// it; a conference shares one socket between send and receive sessions on
// separate ports in the examples). Frames still queued for the pacer are
// not sent. Close is idempotent, and SendViews after it returns an error.
func (s *SendSession) Close() error {
	s.closeOnce.Do(func() {
		close(s.closed)
		_ = s.conn.SetReadDeadline(time.Now())
		s.wg.Wait()
		s.unregister()
	})
	return nil
}

// RecvSession receives one direction of a live conference: it reassembles
// the two video streams through jitter buffers, decodes and pairs them,
// reconstructs point clouds, and generates the reverse-path feedback
// (poses, REMB from its congestion estimator, NACKs, PLI).
type RecvSession struct {
	receiver *core.Receiver
	conn     net.PacketConn
	remote   net.Addr
	trace    *frametrace.Ledger // cfg.Receiver.Trace (nil disables stamps)

	// loopMu serializes the session's two goroutines — the blocking read
	// loop and the housekeeping timers — over the single-threaded receive
	// state: jitter buffers, decoder, congestion estimator, PLI tracker,
	// and the user callbacks. Exactly one runs session logic at a time.
	loopMu sync.Mutex

	// jb holds one jitter buffer per (stream, rung), rungs in release order;
	// playout is the estimator they all share (DESIGN.md §5).
	jb      [2][transport.MaxRungs]*transport.JitterBuffer
	playout *transport.PlayoutEstimator
	// armed is the buffer deadline the housekeeping timer is set for (+Inf
	// when it is stopped); the read loop pokes wake when a drain leaves an
	// earlier one behind.
	armed float64
	wake  chan struct{}
	gcc   *transport.GCC
	// pli schedules key-frame requests during outages (only touched on the
	// Run goroutine).
	pli *transport.PLITracker
	// lastConcealSeq dedupes concealment when both streams of one frame
	// fail to decode.
	lastConcealSeq uint32
	hasConcealed   bool

	// OnCloud is called (on the session goroutine) for every reconstructed
	// frame. The cloud is backed by receiver-owned arenas and is only
	// valid for the duration of the callback — the next reconstruction
	// overwrites it. Clone it to retain it.
	OnCloud func(seq uint32, cloud *PointCloud)
	// PoseSource supplies the viewer's current pose for feedback; nil
	// disables pose feedback.
	PoseSource func() Pose
	// Frustum, when non-nil, is applied to reconstructed clouds.
	Frustum func() *Frustum

	start     time.Time
	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	err       atomic.Value
	decoded   atomic.Int64
	received  atomic.Int64
	concealed atomic.Int64
	plisSent  atomic.Int64
	// estRate caches gcc.Rate(), which is only safe under loopMu.
	estRate atomic.Uint64
	rttUs   atomic.Int64 // smoothed RTT, microseconds (0 before the first pong)
	// lossRx and lossNacked are the received and NACK-ed totals at the last
	// feedback tick (loopMu): GCC's loss report is over the interval since.
	lossRx, lossNacked int64

	unregister func() // removes the session's series (DESIGN.md §6)
}

// RecvSessionConfig configures a RecvSession.
type RecvSessionConfig struct {
	Receiver ReceiverConfig
	// InitialRateBps seeds the bandwidth estimator (default 20 Mbps).
	InitialRateBps float64
	// MinRateBps/MaxRateBps bound the estimator (defaults 1 Mbps / 1 Gbps).
	MinRateBps, MaxRateBps float64
}

// NewRecvSession builds a receiving session bound to conn; feedback goes to
// remote. Callbacks must be set before the first packet arrives.
func NewRecvSession(conn net.PacketConn, remote net.Addr, cfg RecvSessionConfig) (*RecvSession, error) {
	recv, err := core.NewReceiver(cfg.Receiver)
	if err != nil {
		return nil, err
	}
	if cfg.InitialRateBps <= 0 {
		cfg.InitialRateBps = 20e6
	}
	if cfg.MinRateBps <= 0 {
		cfg.MinRateBps = 1e6
	}
	if cfg.MaxRateBps <= 0 {
		cfg.MaxRateBps = 1e9
	}
	r := &RecvSession{
		receiver: recv,
		conn:     conn,
		remote:   remote,
		trace:    cfg.Receiver.Trace,
		playout:  &transport.PlayoutEstimator{},
		armed:    math.Inf(1),
		wake:     make(chan struct{}, 1),
		gcc:      transport.NewGCC(cfg.InitialRateBps, cfg.MinRateBps, cfg.MaxRateBps),
		pli:      transport.NewPLITracker(),
		start:    time.Now(),
		closed:   make(chan struct{}),
	}
	// One jitter buffer per (stream, rung): fragments from two encodings of
	// the same frame seq must never land in one reassembly slot, and a relay
	// rung switch can interleave packets from both rungs around the key
	// boundary. Buffers are pre-created (not lazily on first packet) so the
	// table is never written after construction — Stats() reads it without
	// loopMu. Legacy streams carry rung 0.
	for si := range r.jb {
		for rung := range r.jb[si] {
			jb := transport.NewJitterBuffer()
			jb.Playout = r.playout
			r.jb[si][rung] = jb
		}
	}
	tel := cfg.Receiver.Telemetry
	if tel == nil {
		tel = telemetry.Default
	}
	r.unregister = tel.Funcs(map[string]func() int64{
		"livo_recv_packets_total":     r.received.Load,
		"livo_nack_sent_total":        r.nacked,
		"livo_pli_sent_total":         r.plisSent.Load,
		"livo_concealed_frames_total": r.concealed.Load,
	}, map[string]func() float64{
		"livo_recv_est_rate_bps":    func() float64 { return float64(r.estRate.Load()) },
		"livo_jitter_pending_color": func() float64 { return float64(r.streamStats(0).Pending) },
		"livo_jitter_pending_depth": func() float64 { return float64(r.streamStats(1).Pending) },
	})
	r.estRate.Store(uint64(cfg.InitialRateBps))
	return r, nil
}

// Run processes packets until Close; call it on its own goroutine. Reads
// block (no deadline polling — Close pokes a past deadline after closing
// r.closed to unblock the loop); timed work moves to the housekeeping
// goroutine. The conn is read through udpio.Reader: one recvmmsg fills a
// slice of slots on a udpio socket (one datagram per visit on anything
// else), all of which are processed — and the jitter buffers drained once —
// under a single loopMu hold.
func (r *RecvSession) Run() {
	r.wg.Add(1)
	defer r.wg.Done()
	r.wg.Add(1)
	go r.housekeeping()
	br := udpio.Reader(r.conn)
	ms := make([]udpio.Message, udpio.DefaultBatch)
	for i := range ms {
		ms[i].Buf = make([]byte, 2048) // > MediaMagic + header + MTU
	}
	for {
		got, err := br.ReadBatch(ms)
		now := r.now()
		if err != nil {
			if r.fatalReadErr(err) {
				return
			}
			continue
		}
		r.loopMu.Lock()
		any := false
		for i := 0; i < got; i++ {
			if ms[i].N > 0 && r.handleDatagram(ms[i].Buf[:ms[i].N], now) {
				any = true
			}
		}
		if any {
			r.drainAndWake(now)
		}
		r.loopMu.Unlock()
	}
}

// fatalReadErr classifies a read error: teardown and poked-deadline
// timeouts are expected; anything else kills the session and is surfaced
// through Err.
func (r *RecvSession) fatalReadErr(err error) bool {
	select {
	case <-r.closed:
		return true
	default:
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return false
	}
	r.err.Store(fmt.Errorf("livo: media read: %w", err))
	return true
}

// handleDatagram ingests one wire datagram (loopMu held), reporting whether
// it was a media packet worth a drain pass.
func (r *RecvSession) handleDatagram(buf []byte, now float64) bool {
	if len(buf) < 1 {
		return false
	}
	if buf[0] == transport.FBPong {
		// Our own probe, echoed by the sender or the relay in front of it:
		// the round trip a NACK and its retransmission will take.
		if t0, err := unmarshalPing(buf); err == nil && t0 <= now {
			r.playout.ObserveRTT(now - t0)
			rtt, _ := r.playout.RTT()
			r.rttUs.Store(int64(rtt * 1e6))
		}
		return false
	}
	if buf[0] != mediaMagic {
		return false // other feedback types or junk: not ours
	}
	pkt, err := transport.Unmarshal(buf[1:])
	if err != nil {
		return false
	}
	if pkt.FragIndex == 0 && !pkt.Parity {
		r.trace.StampNow(frametrace.HopWire, pkt.Stream, pkt.FrameSeq, frametrace.NoSub)
	}
	r.gcc.OnArrival(float64(pkt.SendTimeUs)/1e6, now, len(buf))
	r.received.Add(1)
	if si := int(pkt.Stream) - int(transport.StreamColor); si >= 0 && si < len(r.jb) && int(pkt.Rung) < len(r.jb[si]) {
		r.jb[si][pkt.Rung].Push(pkt, now)
	}
	return true
}

// housekeeping owns the session's timed work until Close: feedback every
// 33 ms, and jitter-buffer delivery and NACK scheduling at the buffers' next
// deadline (a frame's playout time, a NACK round, a repair deadline), for
// which it keeps one timer armed — stopped while nothing is pending, so an
// idle session wakes for feedback only. It runs even — especially — when no
// packets arrive: an outage is exactly when NACKs and PLIs must keep flowing.
func (r *RecvSession) housekeeping() {
	defer r.wg.Done()
	feedbackTick := time.NewTicker(33 * time.Millisecond)
	defer feedbackTick.Stop()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	running := true // timer is set and its channel not yet received from
	for {
		select {
		case <-r.closed:
			return
		case <-feedbackTick.C:
			r.loopMu.Lock()
			r.sendFeedback()
			r.loopMu.Unlock()
			continue
		case <-timer.C:
			running = false
		case <-r.wake:
		}
		r.loopMu.Lock()
		next, pending := r.drain(r.now())
		r.armed = math.Inf(1)
		if pending {
			r.armed = next
		}
		r.loopMu.Unlock()
		if running && !timer.Stop() {
			<-timer.C
		}
		running = pending
		if pending {
			// Measured from now, not from before the drain (which decodes and
			// renders); and at least a millisecond, so that a deadline the
			// clock has already reached does not turn the loop into a spin.
			timer.Reset(time.Duration(math.Max(next-r.now(), 0.001) * float64(time.Second)))
		}
	}
}

// drainAndWake is the read loops' drain: when it leaves a deadline earlier
// than the one the housekeeping timer is armed for, housekeeping is poked to
// re-arm (loopMu held).
func (r *RecvSession) drainAndWake(now float64) {
	if next, pending := r.drain(now); pending && next < r.armed {
		r.armed = next
		select {
		case r.wake <- struct{}{}:
		default:
		}
	}
}

func (r *RecvSession) now() float64 { return time.Since(r.start).Seconds() }

// drain delivers the frames that are due from each stream's jitter buffers —
// in frame-sequence order across a stream's rungs — reconstructs completed
// pairs and sends the NACKs that are due. It returns the buffers' next
// deadline after now (loopMu held).
func (r *RecvSession) drain(now float64) (next float64, pending bool) {
	for si := range r.jb {
		stream := transport.StreamColor + uint8(si)
		rungs := r.jb[si][:]
		for _, af := range transport.PopOrdered(now, rungs...) {
			r.deliver(stream, af, now)
		}
		for _, jb := range rungs {
			for _, nack := range jb.Nacks(now) {
				_, _ = r.conn.WriteTo(transport.MarshalNACK(nack.Stream, nack.FrameSeq, nack.FragIndex), r.remote)
			}
		}
		if at, ok := transport.NextDeadline(now, rungs...); ok && (!pending || at < next) {
			next, pending = at, true
		}
	}
	return next, pending
}

// deliver decodes one frame leaving the jitter buffers and, when it
// completes a pair, reconstructs and hands over the cloud.
func (r *RecvSession) deliver(stream uint8, af transport.AssembledFrame, now float64) {
	r.trace.StampNow(frametrace.HopJitter, stream, af.FrameSeq, frametrace.NoSub)
	pkt := &vcodec.Packet{Data: af.Data, Key: af.Key, Seq: af.FrameSeq, Rung: af.Rung}
	var pf *PairedFrame
	var err error
	if stream == transport.StreamColor {
		pf, err = r.receiver.PushColor(pkt)
	} else {
		pf, err = r.receiver.PushDepth(pkt)
	}
	if err != nil {
		// Undecodable: a skipped frame left the decoder's reference stale, or
		// the payload was corrupted in flight. Conceal with the last good
		// paired frame and request a key frame; the tracker re-sends the PLI
		// periodically until the IDR lands but suppresses per-frame storms
		// (§A.1).
		r.conceal(af.FrameSeq)
		if r.pli.Request(now) {
			r.plisSent.Add(1)
			_, _ = r.conn.WriteTo([]byte{transport.FBPLI}, r.remote)
		}
		return
	}
	if af.Key {
		// The recovery IDR decoded: the PLI cycle is complete.
		r.pli.OnKeyFrame()
	}
	if pf == nil {
		return
	}
	r.decoded.Add(1)
	if r.OnCloud != nil {
		var fr *Frustum
		if r.Frustum != nil {
			fr = r.Frustum()
		}
		if cloud, err := r.receiver.Reconstruct(pf, fr); err == nil {
			r.OnCloud(pf.Seq, cloud)
		}
	}
}

// conceal delivers the last good paired frame in place of undecodable frame
// seq, so the viewer sees a frozen-but-coherent cloud instead of nothing
// (or drift) while the PLI-requested key frame is in flight.
func (r *RecvSession) conceal(seq uint32) {
	if r.hasConcealed && r.lastConcealSeq == seq {
		return // the other stream of the same frame already concealed
	}
	r.lastConcealSeq, r.hasConcealed = seq, true
	pf := r.receiver.LastGood()
	if pf == nil || r.OnCloud == nil {
		return
	}
	var fr *Frustum
	if r.Frustum != nil {
		fr = r.Frustum()
	}
	if cloud, err := r.receiver.Reconstruct(pf, fr); err == nil {
		r.concealed.Add(1)
		r.OnCloud(seq, cloud)
	}
}

// sendFeedback pushes pose, REMB, RTT probes, and loss reports to the
// sender.
func (r *RecvSession) sendFeedback() {
	now := r.now()
	if r.PoseSource != nil {
		_, _ = r.conn.WriteTo(marshalPose(now, r.PoseSource()), r.remote)
	}
	// Fold the loss measured since the last tick into the estimate before
	// advertising it (GCC's loss-based controller).
	rxTotal, nackedTotal := r.received.Load(), r.nacked()
	rx, lost := rxTotal-r.lossRx, nackedTotal-r.lossNacked
	r.lossRx, r.lossNacked = rxTotal, nackedTotal
	if rx+lost > 0 {
		r.gcc.OnLossReport(float64(lost) / float64(rx+lost))
	}
	rate := r.gcc.Rate()
	r.estRate.Store(uint64(rate))
	_, _ = r.conn.WriteTo(transport.AppendREMB(make([]byte, 0, 9), rate), r.remote)
	_, _ = r.conn.WriteTo(marshalPing(now, transport.FBPing), r.remote)
}

// Err returns the first asynchronous error hit by Run (media read failure),
// or nil while healthy. Once non-nil the session is dead: Run has returned
// and no further frames will be delivered.
func (r *RecvSession) Err() error {
	if e := r.err.Load(); e != nil {
		return e.(error)
	}
	return nil
}

// RecvStats is a point-in-time snapshot of one receiving session.
type RecvStats struct {
	// Received counts media packets accepted since session start.
	Received int64
	// Decoded counts paired frames delivered; Concealed counts undecodable
	// frames replaced by the last good frame during PLI recovery.
	Decoded   int64
	Concealed int64
	// NACKsSent and PLIsSent count feedback messages emitted; NACKsSent is
	// Color.Nacked + Depth.Nacked, re-requests included.
	NACKsSent int64
	PLIsSent  int64
	// RTT is the smoothed round trip to the peer that echoes the session's
	// probes (the sender, or the relay in front of it), in seconds; 0 before
	// the first echo.
	RTT float64
	// EstRateBps is the congestion estimator's current bandwidth estimate
	// (as last advertised via REMB).
	EstRateBps float64
	// Color and Depth are the per-stream jitter-buffer snapshots, summed
	// over the stream's rung buffers.
	Color, Depth transport.Stats
	// Err is the session's terminal async error, nil while healthy.
	Err error
}

// Stats snapshots the session's counters (safe from any goroutine).
func (r *RecvSession) Stats() RecvStats {
	color, depth := r.streamStats(0), r.streamStats(1)
	return RecvStats{
		Received:   r.received.Load(),
		Decoded:    r.decoded.Load(),
		Concealed:  r.concealed.Load(),
		NACKsSent:  color.Nacked + depth.Nacked,
		PLIsSent:   r.plisSent.Load(),
		RTT:        float64(r.rttUs.Load()) / 1e6,
		EstRateBps: float64(r.estRate.Load()),
		Color:      color,
		Depth:      depth,
		Err:        r.Err(),
	}
}

// streamStats sums one stream's jitter-buffer counters over its rungs: a
// ladder subscriber's frames sit in whichever rung's buffer it is served.
func (r *RecvSession) streamStats(si int) (sum transport.Stats) {
	for _, jb := range r.jb[si] {
		st := jb.Stats()
		sum.Pending += st.Pending
		sum.Delivered += st.Delivered
		sum.Skipped += st.Skipped
		sum.Nacked += st.Nacked
		sum.FECRecovered += st.FECRecovered
	}
	return sum
}

// nacked counts the NACKs the session has sent: each jitter buffer counts
// the requests it hands out.
func (r *RecvSession) nacked() int64 { return r.streamStats(0).Nacked + r.streamStats(1).Nacked }

// Concealed returns how many undecodable frames were replaced by the last
// good frame while awaiting a PLI-requested key frame.
func (r *RecvSession) Concealed() int64 { return r.concealed.Load() }

// Close stops the session (the caller owns the connection). It is
// idempotent.
func (r *RecvSession) Close() error {
	r.closeOnce.Do(func() {
		close(r.closed)
		_ = r.conn.SetReadDeadline(time.Now())
		r.wg.Wait()
		r.unregister()
	})
	return nil
}
