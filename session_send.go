package livo

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"livo/internal/core"
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

	rateBps atomic.Uint64 // current send rate from receiver REMB
	// mu serialises the send core between SendViews, the pacer and the
	// feedback loop; its counters are read without it.
	mu   sync.Mutex
	core *session.Send
	// kick wakes an idle pacer when SendViews queues a frame.
	kick     chan struct{}
	plisRecv atomic.Int64
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
		core:     session.NewSend(cfg.Sender.Ladder, cfg.EnableFEC),
		kick:     make(chan struct{}, 1),
	}
	s.core.Trace = cfg.Sender.Trace
	tel := cfg.Sender.Telemetry
	if tel == nil {
		tel = telemetry.Default
	}
	s.unregister = tel.Funcs(map[string]func() int64{
		"livo_send_packets_total": s.core.Packets.Load,
		"livo_send_bytes_total":   s.core.Bytes.Load,
		"livo_pace_drops_total":   s.core.PaceDrops.Load,
		"livo_retx_total":         s.core.Retransmits.Load,
		"livo_pli_received_total": s.plisRecv.Load,
	}, map[string]func() float64{"livo_send_rate_bps": s.Rate})
	s.rateBps.Store(uint64(cfg.InitialRateBps))
	s.wg.Add(2)
	go s.feedbackLoop()
	go s.paceLoop()
	return s, nil
}

// paceLoop transmits queued frames at twice the current rate, WebRTC-style,
// so queues (and the receiver's delay-gradient estimator) stay sane. The
// core keeps an absolute schedule rather than the loop sleeping after each
// send, so a timer that fires late shortens the next wait instead of adding
// to the frame's wire time, and every packet due at a wake-up leaves in one
// WriteBatch: one sendmmsg on a udpio socket.
func (s *SendSession) paceLoop() {
	defer s.wg.Done()
	// One timer for the life of the loop. It is re-armed only after its
	// channel has been received from, which is what makes Reset safe.
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	var batch [][]byte
	for {
		now := time.Now()
		s.mu.Lock()
		wires, next, queued := s.core.Due(batch[:0], now, s.Rate())
		s.mu.Unlock()
		if batch = wires; len(wires) > 0 {
			if _, err := relaycore.WriteBatch(s.conn, wires, s.remote); err != nil {
				s.err.Store(fmt.Errorf("livo: send: %w", err))
				return
			}
			continue
		}
		wake := s.kick
		if queued {
			timer.Reset(next.Sub(now))
			wake = nil // the queue is in order: a new frame changes nothing
		}
		select {
		case <-s.closed:
			return
		case <-timer.C:
		case <-wake:
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
	// Handing the frame to the pacer is part of the trace's uplink stage.
	if err := s.enqueue(s.core.Cut(enc, uint64(s.now()*1e6))); err != nil {
		return nil, err
	}
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

// enqueue hands one frame's packets to the send core, which queues them
// for the pacer and keeps them for NACKs, and wakes the pacer.
func (s *SendSession) enqueue(pkts []transport.Packet) error {
	if err := s.sendable(); err != nil {
		return err
	}
	s.mu.Lock()
	wake := s.core.Queue(pkts)
	s.mu.Unlock()
	if wake {
		select {
		case s.kick <- struct{}{}:
		default:
		}
	}
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
			s.mu.Lock()
			wires := s.core.Nack(transport.NackRequest{Stream: stream, FrameSeq: seq, FragIndex: frag})
			s.mu.Unlock()
			for _, wire := range wires {
				_, _ = s.conn.WriteTo(wire, s.remote)
			}
		}
	case transport.FBPLI:
		s.plisRecv.Add(1)
		// During an outage the receiver re-sends PLIs until the IDR lands;
		// the sender's storm guard arms one refresh at a time (§A.1).
		s.sender.RequestKeyFrame()
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
		Frames:        s.core.Frames.Load(),
		Packets:       s.core.Packets.Load(),
		Bytes:         s.core.Bytes.Load(),
		PaceDrops:     s.core.PaceDrops.Load(),
		Retransmits:   s.core.Retransmits.Load(),
		NACKsReceived: s.core.Nacks.Load(),
		PLIsReceived:  s.plisRecv.Load(),
		RateBps:       s.Rate(),
		Err:           s.Err(),
	}
}
