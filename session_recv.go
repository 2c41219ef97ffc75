package livo

import (
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"livo/internal/core"
	"livo/internal/session"
	"livo/internal/telemetry"
	"livo/internal/transport"
	"livo/internal/udpio"
)

// RecvSession receives one direction of a live conference: it reassembles
// the two video streams through jitter buffers, decodes and pairs them,
// reconstructs point clouds, and generates the reverse-path feedback
// (poses, REMB from its congestion estimator, NACKs, PLI). The receive
// policy is the core's (internal/session); the session adds the socket, the
// goroutines and the clock.
type RecvSession struct {
	endpoint
	receiver *core.Receiver

	// loopMu serializes the session's two goroutines — the blocking read
	// loop and the housekeeping timers — over the single-threaded receive
	// core, and the user callbacks. Exactly one runs session logic at a time.
	loopMu sync.Mutex
	core   *session.Recv
	// armed is the buffer deadline the housekeeping timer is set for (+Inf
	// when it is stopped); the read loop pokes wake when a drain leaves an
	// earlier one behind.
	armed float64
	wake  chan struct{}

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

	// estRate is the rate last advertised by REMB.
	estRate atomic.Uint64
	rttUs   atomic.Int64 // smoothed RTT, microseconds (0 before the first pong)
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
		endpoint: newEndpoint(conn, remote),
		receiver: recv,
		armed:    math.Inf(1),
		wake:     make(chan struct{}, 1),
	}
	gcc := transport.NewGCC(cfg.InitialRateBps, cfg.MinRateBps, cfg.MaxRateBps)
	r.core = session.NewRecv(recv, &transport.PlayoutEstimator{}, gcc)
	r.core.Trace = cfg.Receiver.Trace
	r.core.OnFrame = r.show
	r.core.OnNack = func(n transport.NackRequest) {
		_, _ = r.conn.WriteTo(transport.MarshalNACK(n.Stream, n.FrameSeq, n.FragIndex), r.remote)
	}
	r.core.OnPLI = func() { _, _ = r.conn.WriteTo([]byte{transport.FBPLI}, r.remote) }
	tel := cfg.Receiver.Telemetry
	if tel == nil {
		tel = telemetry.Default
	}
	r.unregister = tel.Funcs(map[string]func() int64{
		"livo_recv_packets_total":     r.core.Received.Load,
		"livo_nack_sent_total":        r.core.Nacked,
		"livo_pli_sent_total":         r.core.PLIs.Load,
		"livo_concealed_frames_total": r.core.Concealed.Load,
	}, map[string]func() float64{
		"livo_recv_est_rate_bps":    func() float64 { return float64(r.estRate.Load()) },
		"livo_jitter_pending_color": func() float64 { return float64(r.core.StreamStats(0).Pending) },
		"livo_jitter_pending_depth": func() float64 { return float64(r.core.StreamStats(1).Pending) },
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
			if r.readFailed(err, "media read") {
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

// handleDatagram ingests one wire datagram (loopMu held), reporting whether
// it was a media packet worth a drain pass.
func (r *RecvSession) handleDatagram(buf []byte, now float64) bool {
	if len(buf) == 0 || buf[0] != transport.FBPong {
		return r.core.Media(buf, now, len(buf)) // other feedback types or junk: false
	}
	// Our own probe, echoed by the sender or the relay in front of it: the
	// round trip a NACK and its retransmission will take.
	if t0, err := unmarshalPing(buf); err == nil && t0 <= now {
		r.core.Playout.ObserveRTT(now - t0)
		rtt, _ := r.core.Playout.RTT()
		r.rttUs.Store(int64(rtt * 1e6))
	}
	return false
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
		next, pending := r.core.Drain(r.now())
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

// drainAndWake is the read loop's drain: one that leaves a deadline earlier
// than housekeeping's timer pokes it to re-arm (loopMu held).
func (r *RecvSession) drainAndWake(now float64) {
	if next, pending := r.core.Drain(now); pending && next < r.armed {
		r.armed = next
		select {
		case r.wake <- struct{}{}:
		default:
		}
	}
}

// show reconstructs the frame the core hands over — a decoded pair, or the
// last good one in place of an undecodable frame, so the viewer sees a
// frozen-but-coherent cloud while the PLI-requested key frame is in flight —
// and passes it to OnCloud.
func (r *RecvSession) show(seq uint32, pf *PairedFrame, _ bool, _ float64) {
	if pf == nil || r.OnCloud == nil {
		return
	}
	var fr *Frustum
	if r.Frustum != nil {
		fr = r.Frustum()
	}
	if cloud, err := r.receiver.Reconstruct(pf, fr); err == nil {
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
	// The loss measured since the last tick is folded into the estimate
	// before it is advertised (GCC's loss-based controller).
	rate := r.core.Report()
	r.estRate.Store(uint64(rate))
	_, _ = r.conn.WriteTo(transport.AppendREMB(make([]byte, 0, 9), rate), r.remote)
	_, _ = r.conn.WriteTo(marshalPing(now, transport.FBPing), r.remote)
}

// RecvStats is a point-in-time snapshot of one receiving session.
type RecvStats struct {
	// Received counts media packets accepted since session start.
	Received int64
	// Decoded counts paired frames delivered; Concealed counts frames that
	// failed to decode, each once, shown as the last good frame during PLI
	// recovery.
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
	color, depth := r.core.StreamStats(0), r.core.StreamStats(1)
	return RecvStats{
		Received:   r.core.Received.Load(),
		Decoded:    r.core.Decoded.Load(),
		Concealed:  r.core.Concealed.Load(),
		NACKsSent:  color.Nacked + depth.Nacked,
		PLIsSent:   r.core.PLIs.Load(),
		RTT:        float64(r.rttUs.Load()) / 1e6,
		EstRateBps: float64(r.estRate.Load()),
		Color:      color,
		Depth:      depth,
		Err:        r.Err(),
	}
}

// Concealed returns how many frames failed to decode and were replaced by
// the last good frame while awaiting a PLI-requested key frame.
func (r *RecvSession) Concealed() int64 { return r.core.Concealed.Load() }
