package main

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"livo"
	"livo/internal/relaycore"
	"livo/internal/transport"
	"livo/internal/udpio"
)

const (
	fps          = 30
	warmFrames   = 30                     // 1 s untimed warm-up, part of set-up
	clipFrames   = 90                     // prerendered, played ping-pong
	ontimeLimit  = 300 * time.Millisecond // a frame displayed later than this is a failure
	drainWait    = 500 * time.Millisecond // playout + skip deadline + repair round trip
	sampleEvery  = 30                     // PointSSIM on every 30th frame
	sinkREMBTick = 100 * time.Millisecond
	probeTick    = 200 * time.Millisecond // host-speed probe: 1 ms of CPU five times a second
)

// liveSpec describes one live workload.
type liveSpec struct {
	name      string
	scene     string
	cams      int // capture rig: cameras × w × h
	w, h      int
	variant   livo.Variant
	ladder    bool
	rateBps   float64       // sender's pinned rate
	lossPct   float64       // media loss on the sender's egress
	delay     time.Duration // one-way delay, both directions
	classes   []float64     // subscriber REMB classes behind a relay; nil = point to point
	subs      int
	render    livo.RenderOptions // the viewers' viewport; zero = Render's 640×480 default
	maxPoints int                // PointSSIM subsample, sized so scoring stays under a quarter of the window
}

var liveSpecs = map[string]liveSpec{
	"call_clean": {name: "call_clean", scene: "office1", cams: 6, w: 64, h: 48, variant: livo.VariantLiVo, rateBps: 2e6, maxPoints: 1000},
	"call_lossy": {name: "call_lossy", scene: "office1", cams: 6, w: 64, h: 48, variant: livo.VariantLiVo, rateBps: 2e6,
		lossPct: 2, delay: 20 * time.Millisecond, maxPoints: 1000},
	// One viewer's frustum is wrong for 64, so the fan-out sender does not cull.
	"fanout_ladder": {name: "fanout_ladder", scene: "band2", cams: 4, w: 48, h: 40, variant: livo.VariantNoCull, ladder: true, rateBps: 20e6,
		classes: []float64{20e6, 3e6, 1e6}, subs: 64, maxPoints: 500,
		// Three viewers share two cores with the relay and 61 sinks.
		render: livo.RenderOptions{Width: 320, Height: 240}},
}

// display is one OnCloud callback at a measured receiver.
type display struct {
	seq         uint32
	entry, done time.Time // OnCloud entry, livo.Render returned
	concealed   bool
}

// receiver is one measured RecvSession and what its viewer saw.
type receiver struct {
	class int
	sess  *livo.RecvSession
	conn  batchConn
	tap   *tap // nil when untraced
	addr  net.Addr

	mu            sync.Mutex
	displays      []display
	lastConcealed int64
	screen        shown            // what the viewer is looking at; its buffers are reused
	nextSample    uint32           // next frame whose displayed cloud is kept for scoring
	shown         map[uint32]shown // the sampled frames as displayed
}

// sink is a subscriber that only counts packets and advertises its class.
type sink struct {
	conn  *udpio.Socket
	class int
	pkts  atomic.Int64
}

// rig is one constructed workload: sockets, sessions and (fan-out) relay.
type rig struct {
	spec   liveSpec
	viewer viewer
	t0     time.Time // viewer clock origin

	send      *livo.SendSession
	sendSock  *udpio.Socket
	sendTap   *tap
	relay     *livo.Relay
	relaySock *udpio.Socket
	relayTap  *tap
	recvs     []*receiver
	sinks     []*sink
	conns     []interface{ Close() error }

	stopSinks chan struct{}
	sinkWG    sync.WaitGroup
}

func listen() (*udpio.Socket, error) { return udpio.Listen("udp", "127.0.0.1:0", udpio.Config{}) }

// buildRig constructs sockets, sessions and relay for spec. traced puts a
// tap on every conn the program is handed; the shaper is there whenever the
// workload impairs the link.
func buildRig(spec liveSpec, c *clip, seed int64, seconds float64, traced bool) (_ *rig, err error) {
	g := &rig{
		spec:      spec,
		viewer:    newViewer(spec.scene, seed, seconds),
		t0:        time.Now(),
		stopSinks: make(chan struct{}),
	}
	defer func() {
		if err != nil {
			g.close()
		}
	}()
	// wrap layers shaper and tap over a fresh socket and records what to close.
	wrap := func(s *udpio.Socket, lossPct float64, watch ...net.Addr) (batchConn, *tap) {
		var conn batchConn = s
		if spec.delay > 0 || lossPct > 0 {
			conn = newShaper(conn, seed, lossPct, spec.delay)
		}
		g.conns = append(g.conns, conn)
		if !traced {
			return conn, nil
		}
		t := newTap(conn, watch...)
		return t, t
	}

	if g.sendSock, err = listen(); err != nil {
		return nil, err
	}
	sendConn, sendTap := wrap(g.sendSock, spec.lossPct)
	g.sendTap = sendTap

	// Receivers: one measured session per class (one in all when point to point).
	nMeasured := 1
	if spec.classes != nil {
		nMeasured = len(spec.classes)
	}
	recvSocks := make([]*udpio.Socket, nMeasured)
	for i := range recvSocks {
		if recvSocks[i], err = listen(); err != nil {
			return nil, err
		}
	}

	sendPeer := recvSocks[0].LocalAddr()
	recvPeer := g.sendSock.LocalAddr()
	if spec.classes != nil {
		if g.relaySock, err = listen(); err != nil {
			return nil, err
		}
		watch := make([]net.Addr, nMeasured)
		for i, s := range recvSocks {
			watch[i] = s.LocalAddr()
		}
		relayConn, relayTap := wrap(g.relaySock, 0, watch...)
		g.relayTap = relayTap
		g.relay = livo.NewRelayGroup([]net.PacketConn{relayConn}, g.sendSock.LocalAddr(), relaycore.Config{})
		sendPeer, recvPeer = g.relaySock.LocalAddr(), g.relaySock.LocalAddr()
	}

	g.send, err = livo.NewSendSession(sendConn, sendPeer, livo.SendSessionConfig{
		Sender: livo.SenderConfig{
			Variant: spec.variant, Array: c.video.Array, ViewParams: livo.DefaultViewParams(), Ladder: spec.ladder,
		},
		InitialRateBps: spec.rateBps,
	})
	if err != nil {
		return nil, err
	}

	for i, sock := range recvSocks {
		rate := spec.rateBps
		if spec.classes != nil {
			rate = spec.classes[i]
		}
		conn, t := wrap(sock, 0)
		r := &receiver{class: i, conn: conn, tap: t, addr: sock.LocalAddr(), nextSample: warmFrames, shown: map[uint32]shown{}}
		// Rates are pinned: free-running GCC does not repeat between runs.
		r.sess, err = livo.NewRecvSession(conn, recvPeer, livo.RecvSessionConfig{
			Receiver:       livo.ReceiverConfig{Array: c.video.Array},
			InitialRateBps: rate, MinRateBps: rate, MaxRateBps: rate,
		})
		if err != nil {
			return nil, err
		}
		r.sess.PoseSource = g.pose
		r.sess.Frustum = func() *livo.Frustum {
			f := livo.NewFrustum(g.pose(), livo.DefaultViewParams())
			return &f
		}
		r.sess.OnCloud = func(seq uint32, cloud *livo.PointCloud) { g.onCloud(r, seq, cloud) }
		g.recvs = append(g.recvs, r)
	}

	if g.relay != nil {
		// The rung-0 receiver subscribes first and so is the primary viewer.
		for _, r := range g.recvs {
			g.relay.Subscribe(r.addr)
		}
		// The seed assigns sinks to classes; class sizes are fixed (22/21/21 of 64).
		nSinks := spec.subs - nMeasured
		classOf := make([]int, nSinks)
		for i := range classOf {
			classOf[i] = i % len(spec.classes)
		}
		rand.New(rand.NewSource(seed)).Shuffle(nSinks, func(i, j int) { classOf[i], classOf[j] = classOf[j], classOf[i] })
		for _, cl := range classOf {
			sock, err := listen()
			if err != nil {
				return nil, err
			}
			g.conns = append(g.conns, sock)
			g.sinks = append(g.sinks, &sink{conn: sock, class: cl})
			g.relay.Subscribe(sock.LocalAddr())
		}
	}
	return g, nil
}

func (g *rig) pose() livo.Pose { return g.viewer.At(time.Since(g.t0).Seconds()) }

// onCloud is the viewer: it renders every delivered cloud from the current
// pose and logs what was shown.
func (g *rig) onCloud(r *receiver, seq uint32, cloud *livo.PointCloud) {
	entry := time.Now()
	pose := g.pose()
	livo.Render(cloud, pose, g.spec.render)
	done := time.Now()
	conc := r.sess.Concealed()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.displays = append(r.displays, display{seq, entry, done, conc != r.lastConcealed})
	r.lastConcealed = conc
	// A sampled frame the receiver passed over was never displayed: the viewer
	// kept looking at the cloud before it, and that is what gets scored.
	for ; r.nextSample < seq; r.nextSample += sampleEvery {
		if _, ok := r.shown[r.nextSample]; !ok && r.screen.cloud != nil {
			r.shown[r.nextSample] = shown{frame: int(r.nextSample), cloud: r.screen.cloud.Clone(), pose: r.screen.pose}
		}
	}
	if seq == r.nextSample {
		if _, dup := r.shown[seq]; !dup {
			r.shown[seq] = shown{frame: int(seq), cloud: cloud.Clone(), pose: pose}
		}
	}
	// The cloud lives in the receiver's arena only for this callback.
	if r.screen.cloud == nil {
		r.screen.cloud = &livo.PointCloud{}
	}
	r.screen.cloud.Positions = append(r.screen.cloud.Positions[:0], cloud.Positions...)
	r.screen.cloud.Colors = append(r.screen.cloud.Colors[:0], cloud.Colors...)
	r.screen.pose = pose
}

// start launches the receive loops, the relay and the sinks.
func (g *rig) start() {
	for _, r := range g.recvs {
		go r.sess.Run()
	}
	if g.relay == nil {
		return
	}
	go g.relay.Run()
	relayAddr := g.relaySock.LocalAddr()
	for _, s := range g.sinks {
		g.sinkWG.Add(1)
		go func(s *sink) {
			defer g.sinkWG.Done()
			msgs := make([]udpio.Message, udpio.DefaultBatch)
			for i := range msgs {
				msgs[i].Buf = make([]byte, 2048)
			}
			for {
				n, err := s.conn.ReadBatch(msgs)
				if err != nil {
					return // closed at teardown
				}
				s.pkts.Add(int64(n))
			}
		}(s)
	}
	g.sinkWG.Add(1)
	go func() {
		defer g.sinkWG.Done()
		tick := time.NewTicker(sinkREMBTick)
		defer tick.Stop()
		for {
			for _, s := range g.sinks {
				_, _ = s.conn.WriteTo(transport.AppendREMB(nil, g.spec.classes[s.class]), relayAddr)
			}
			select {
			case <-g.stopSinks:
				return
			case <-tick.C:
			}
		}
	}()
}

// stopSessions closes the sender and the measured receivers; the relay and
// the sinks keep running.
func (g *rig) stopSessions() {
	if g.send != nil {
		_ = g.send.Close()
		g.send = nil
	}
	for _, r := range g.recvs {
		_ = r.sess.Close()
	}
	g.recvs = nil
}

// close stops sessions before their conns, so nothing writes to a closed
// shaper; it is safe on a partly built rig.
func (g *rig) close() {
	g.stopSessions()
	close(g.stopSinks)
	if g.relay != nil {
		_ = g.relay.Close()
	}
	for _, c := range g.conns {
		_ = c.Close()
	}
	g.sinkWG.Wait()
}

// auditRelay checks the invariants the relay states, once its traffic has
// come to rest, and records where its subscribers ended up.
func (g *rig) auditRelay(p *pass) {
	st := g.relay.Stats()
	p.counters["relaycore.max_depth"] = float64(st.MaxDepth)
	classOf := map[string]int{}
	for _, r := range p.recvs {
		classOf[r.addr.String()] = r.class
	}
	isSink := map[string]bool{}
	for _, s := range g.sinks {
		a := s.conn.LocalAddr().String()
		classOf[a], isSink[a] = s.class, true
	}
	var sinkSent, sinkGot float64
	for _, s := range st.Subs {
		if s.Enqueued != s.Sent+s.Dropped+s.Depth {
			p.problems = append(p.problems, fmt.Sprintf("relay sub %s: enqueued %d != sent %d + dropped %d + depth %d",
				s.Addr, s.Enqueued, s.Sent, s.Dropped, s.Depth))
		}
		// Class i is pinned at a rate that affords rung i and not rung i-1.
		if int(s.Rung) == classOf[s.Addr] {
			p.counters["relaycore.subs_on_expected_rung"]++
		}
		if isSink[s.Addr] {
			sinkSent += float64(s.Sent)
		}
	}
	for _, s := range g.sinks {
		sinkGot += float64(s.pkts.Load())
	}
	if sinkSent > 0 {
		p.counters["bench.sink_delivered_ratio"] = sinkGot / sinkSent
	}
}

// offer is one frame handed to the sender on the open-loop schedule.
type offer struct {
	due  time.Time
	late time.Duration // how far behind its due time the generator woke
	ret  time.Time     // SendViews returned
}

// offerFrames plays frame counters [from, from+n) at 30 fps: frame k is due
// at start+(k-from)/30 regardless of how long earlier frames took.
func (g *rig) offerFrames(c *clip, from, n int, start time.Time) ([]offer, error) {
	out := make([]offer, n)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * time.Second / fps)
		time.Sleep(time.Until(due))
		late := time.Since(due)
		enc, err := g.send.SendViews(c.at(from + i))
		if err != nil {
			return nil, fmt.Errorf("SendViews frame %d: %w", from+i, err)
		}
		if int(enc.Seq) != from+i {
			return nil, fmt.Errorf("frame %d went out as seq %d", from+i, enc.Seq)
		}
		out[i] = offer{due, late, time.Now()}
	}
	return out, nil
}

// counters snapshots every additive counter the public Stats() expose;
// the timed window reports end minus start.
func (g *rig) counters() map[string]float64 {
	m := map[string]float64{}
	ss := g.send.Stats()
	m["session.send_pkts"] = float64(ss.Packets)
	m["session.send_bytes"] = float64(ss.Bytes)
	m["session.pace_drops"] = float64(ss.PaceDrops)
	m["session.retx_sent"] = float64(ss.Retransmits)
	for _, r := range g.recvs {
		rs := r.sess.Stats()
		m["session.nacks_sent"] += float64(rs.NACKsSent)
		m["session.plis_sent"] += float64(rs.PLIsSent)
		m["session.concealed_frames"] += float64(rs.Concealed)
		m["session.jitter_skipped_frames"] += float64(rs.Color.Skipped + rs.Depth.Skipped)
		m["recv_pkts"] += float64(rs.Received)
	}
	wr, rd := g.sendSock.Stats(), udpio.SocketStats{}
	if g.relay != nil {
		st := g.relay.Stats()
		m["relaycore.media_pkts"] = float64(st.MediaPackets)
		m["relaycore.dropped"] = float64(st.Drops)
		m["relaycore.retx_hits"] = float64(st.RetxHits)
		m["relaycore.retx_misses"] = float64(st.RetxMisses)
		m["relaycore.rung_switches"] = float64(st.RungSwitches)
		m["relaycore.pli_forwarded"] = float64(st.PLIForwarded)
		for _, s := range st.Subs {
			m["relaycore.enqueued"] += float64(s.Enqueued)
			m["relaycore.sent"] += float64(s.Sent)
		}
		for _, sh := range st.Shards {
			m["relaycore.stolen_queues"] += float64(sh.Stolen)
		}
		wr = g.relay.WireStats()
		rd = wr
	} else {
		rd = g.recvs[0].conn.Stats()
	}
	// The workload's busiest socket: the relay's, else sender write / receiver read.
	m["wr_sys"], m["wr_pkts"] = float64(wr.WriteSyscalls), float64(wr.WritePackets)
	m["rd_sys"], m["rd_pkts"] = float64(rd.ReadSyscalls), float64(rd.ReadPackets)
	m["udpio.truncated"] = float64(wr.Truncated)
	return m
}

// pass is everything one run of a live workload produced.
type pass struct {
	spec      liveSpec
	construct time.Duration // sockets, sessions, relay, goroutines
	warmup    time.Duration
	offers    []offer
	recvs     []*receiver
	sendTap   *tap
	relayTap  *tap
	counters  map[string]float64
	usage     procUsage // delta over the timed window
	probe     speedProbe
	problems  []string
}

// runPass builds the workload, warms it up for a second and offers n timed
// frames.
func runPass(spec liveSpec, c *clip, seed int64, n int, traced bool) (*pass, error) {
	p := &pass{spec: spec}
	t := time.Now()
	g, err := buildRig(spec, c, seed, float64(warmFrames+n)/fps+1, traced)
	if err != nil {
		return nil, err
	}
	g.start()
	p.construct = time.Since(t)
	defer func() {
		if g != nil {
			g.close()
		}
	}()

	start := time.Now()
	if _, err := g.offerFrames(c, 0, warmFrames, start); err != nil {
		return nil, err
	}
	timedStart := start.Add(warmFrames * time.Second / fps)
	time.Sleep(time.Until(timedStart))
	p.warmup = time.Since(start)
	c0, u0 := g.counters(), readProcUsage(traced)
	p.probe.every(probeTick)
	p.offers, err = g.offerFrames(c, warmFrames, n, timedStart)
	if err == nil {
		time.Sleep(drainWait)
	}
	p.probe.halt()
	if err != nil {
		return nil, err
	}
	u1, c1 := readProcUsage(traced), g.counters()

	p.usage = u1.since(u0)
	p.usage.user -= p.probe.cpu
	for k, v := range c1 {
		c1[k] = v - c0[k]
	}
	p.counters = c1
	p.recvs, p.sendTap, p.relayTap = g.recvs, g.sendTap, g.relayTap

	errs := []error{g.send.Err()}
	for _, r := range g.recvs {
		errs = append(errs, r.sess.Err())
	}
	if g.relay != nil {
		errs = append(errs, g.relay.Err())
	}
	for _, e := range errs {
		if e != nil {
			p.problems = append(p.problems, "session error: "+e.Error())
		}
	}

	// The sessions ping each other through the relay for as long as they
	// live, so its queue counters only come to rest once they have stopped.
	g.stopSessions()
	relay := g.relay
	if relay != nil {
		time.Sleep(50 * time.Millisecond)
		g.auditRelay(p)
	}
	g.close()
	g = nil
	if relay != nil {
		live := relay.Stats().PoolLive
		c1["relaycore.pool_live_after_close"] = float64(live)
		if live != 0 {
			p.problems = append(p.problems, fmt.Sprintf("relay pool holds %d buffers after Close", live))
		}
	}
	return p, nil
}
