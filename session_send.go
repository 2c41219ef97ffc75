package livo

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"livo/internal/core"
	"livo/internal/frametrace"
	"livo/internal/relaycore"
	"livo/internal/session"
	"livo/internal/telemetry"
	"livo/internal/transport"
)

// SendSession streams one direction of a live conference: it encodes camera
// views with the LiVo pipeline and sends them to a remote receiver over a
// packet connection, processing feedback (poses, REMB, NACK, PLI) on the
// reverse path. A two-way conference runs one SendSession and one
// RecvSession per site (§3.1).
type SendSession struct {
	endpoint
	sender *core.Sender
	fec    bool
	trace  *frametrace.Ledger // cfg.Sender.Trace (nil disables stamps)

	rateBps atomic.Uint64 // current send rate from receiver REMB
	paceQ   chan [][]byte // one frame's wire packets per entry, in send order
	// pliArmed guards against PLI storms: once a PLI forces a key frame,
	// further PLIs are ignored until that IDR is actually encoded (§A.1).
	pliArmed atomic.Bool

	mu      sync.Mutex
	history *session.History // recent packets for NACK retransmission

	frames    atomic.Int64
	pkts      atomic.Int64
	bytesSent atomic.Int64
	paceDrops atomic.Int64
	retx      atomic.Int64
	nacksRecv atomic.Int64
	plisRecv  atomic.Int64
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
		endpoint: newEndpoint(conn, remote),
		sender:   sender,
		fec:      cfg.EnableFEC,
		trace:    cfg.Sender.Trace,
		history:  session.NewHistory(cfg.Sender.Ladder),
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
	s.mu.Lock()
	for i := range pkts {
		s.history.Add(&pkts[i], wires[i])
	}
	s.mu.Unlock()
	return nil
}

// feedbackLoop processes reverse-path messages until Close.
func (s *SendSession) feedbackLoop() {
	defer s.wg.Done()
	buf := make([]byte, 65536)
	for {
		n, _, err := s.conn.ReadFrom(buf)
		if err != nil {
			if s.readFailed(err, "feedback read") {
				return
			}
			continue
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
			s.mu.Lock()
			wires := s.history.Nack(transport.NackRequest{Stream: stream, FrameSeq: seq, FragIndex: frag})
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
