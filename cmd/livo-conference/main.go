// Command livo-conference runs a full two-way conference between two
// simulated sites in one process over loopback UDP: each site captures its
// own scene, streams it to the other, and views the other's scene from a
// moving synthetic viewer — the deployment model of §3.1 (one sender and
// one receiver pipeline per site).
//
// Usage:
//
//	livo-conference -seconds 10
//
// The A→B direction is traced end to end (capture → cull → tile → encode →
// packetize → relay → jitter → decode → reconstruct): -debug-addr serves
// the merged timelines at /debugz/frames, their per-stage decomposition at
// /debugz/stages, structured relay events at /debugz/events,
// and per-subscriber queue stats at /debugz/subscribers; -trace-dump writes
// the merged timelines as JSONL at exit; SIGQUIT prints a compact
// subscriber table without stopping the conference.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"livo"
	"livo/internal/frametrace"
	"livo/internal/relaycore"
	"livo/internal/scene"
	"livo/internal/telemetry"
	"livo/internal/udpio"
)

// site is one conference endpoint: a captured scene plus a viewer.
type site struct {
	name   string
	video  *scene.Video
	send   *livo.SendSession
	recv   *livo.RecvSession
	clouds atomic.Int64
}

func main() {
	var (
		videoA    = flag.String("video-a", "band2", "site A's scene")
		videoB    = flag.String("video-b", "office1", "site B's scene")
		seconds   = flag.Float64("seconds", 5, "conference duration")
		fanout    = flag.Int("fanout", 0, "route site A through a relay to this many subscribers (site B plus counting sinks)")
		ladder    = flag.Bool("ladder", false, "site A encodes the 3-rung quality ladder; the relay assigns each subscriber a rung from its REMB (DESIGN.md §8)")
		shards    = flag.Int("relay-shards", 0, "relay data-plane ingest shards (0 = GOMAXPROCS)")
		udpBatch  = flag.Bool("udp-batch", true, "batch UDP syscalls with sendmmsg/recvmmsg where the kernel supports it")
		rpShards  = flag.Int("reuseport-shards", 0, "bind this many SO_REUSEPORT relay ingest sockets sharing one port (0/1 = single socket)")
		sockBuf   = flag.Int("sockbuf", 0, "request SO_RCVBUF/SO_SNDBUF of this many bytes on every socket (0 = default ~1s of media)")
		debug     = flag.String("debug-addr", "", "serve /debugz, /debug/pprof, and /debug/vars on this address (e.g. localhost:6060)")
		traceDump = flag.String("trace-dump", "", "write the A→B merged frame timelines as JSONL to this file at exit")
	)
	flag.Parse()

	sockCfg := udpio.Config{
		RecvBuf:      *sockBuf,
		SendBuf:      *sockBuf,
		DisableBatch: !*udpBatch,
	}

	// Frame-trace ledgers for the A→B direction: one per process hop
	// (sender pipeline, relay data plane, receiver pipeline). Everything is
	// in-process, so all three stamp on the one clock the collector needs.
	traceSend := frametrace.NewLedger(4096)
	traceRelay := frametrace.NewLedger(8192)
	traceRecv := frametrace.NewLedger(4096)
	traceEvents := frametrace.NewEventRing(1024)

	cfg := scene.DefaultCaptureConfig()
	cfg.Cameras, cfg.Width, cfg.Height = 4, 64, 48 // small rig for the demo

	// Session sockets go through udpio so the receive loops can drain with
	// recvmmsg and the kernel queues hold ~1s of media (or -sockbuf) instead
	// of the tiny distro default.
	mkConn := func() net.PacketConn {
		s, err := udpio.Listen("udp", "127.0.0.1:0", sockCfg)
		if err != nil {
			log.Fatal(err)
		}
		return s
	}
	// Each direction gets its own socket pair (media + feedback share it).
	aOut, bIn := mkConn(), mkConn() // A -> B
	bOut, aIn := mkConn(), mkConn() // B -> A
	defer aOut.Close()
	defer bIn.Close()
	defer bOut.Close()
	defer aIn.Close()
	if st := aOut.(*udpio.Socket).Stats(); st.RecvBufBytes > 0 {
		fmt.Printf("udp sockets: batched=%v rcvbuf=%d sndbuf=%d (kernel-granted)\n",
			st.Batched, st.RecvBufBytes, st.SendBufBytes)
	}

	mkSite := func(name, videoName string, out net.PacketConn, outPeer net.Addr, in net.PacketConn, inPeer net.Addr, sendTrace, recvTrace *frametrace.Ledger, lad bool) *site {
		v, err := scene.OpenVideo(videoName, cfg)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		st := &site{name: name, video: v}
		st.send, err = livo.NewSendSession(out, outPeer, livo.SendSessionConfig{
			Sender: livo.SenderConfig{Array: v.Array, ViewParams: livo.DefaultViewParams(), Trace: sendTrace, Ladder: lad},
		})
		if err != nil {
			log.Fatal(err)
		}
		st.recv, err = livo.NewRecvSession(in, inPeer, livo.RecvSessionConfig{
			Receiver: livo.ReceiverConfig{Array: v.Array, Trace: recvTrace},
		})
		if err != nil {
			log.Fatal(err)
		}
		st.recv.OnCloud = func(seq uint32, cloud *livo.PointCloud) { st.clouds.Add(1) }
		viewer := livo.SynthUserTrace(name+"-viewer", int64(len(name)), 3600, 30)
		start := time.Now()
		st.recv.PoseSource = func() livo.Pose { return viewer.At(time.Since(start).Seconds()) }
		go st.recv.Run()
		return st
	}

	// With -fanout N, site A's direction runs through a relay: A sends to
	// the relay, which fans out to site B (the primary viewer) plus N-1
	// counting sinks, and aggregates the reverse path (REMB minimum, PLI
	// dedup, NACK coalescing). B→A stays direct.
	var (
		relay     *livo.Relay
		sinkPkts  atomic.Int64
		aOutPeer  net.Addr = bIn.LocalAddr()
		bInPeer   net.Addr = aOut.LocalAddr()
		sinkConns []net.PacketConn
	)
	if *fanout > 0 {
		// One SO_REUSEPORT socket per ingest shard lets the kernel steer
		// flows across the relay's batch-read loops; a single socket keeps
		// the classic layout.
		ngroup := *rpShards
		if ngroup < 1 {
			ngroup = 1
		}
		socks, err := udpio.ListenGroup("udp", "127.0.0.1:0", ngroup, sockCfg)
		if err != nil {
			log.Fatalf("relay sockets: %v", err)
		}
		relayConns := make([]net.PacketConn, len(socks))
		for i, s := range socks {
			relayConns[i] = s
			defer s.Close()
		}
		st := socks[0].Stats()
		fmt.Printf("relay sockets: %d×%s batched=%v rcvbuf=%d sndbuf=%d (kernel-granted)\n",
			len(socks), socks[0].LocalAddr(), st.Batched, st.RecvBufBytes, st.SendBufBytes)
		relay = livo.NewRelayGroup(relayConns, aOut.LocalAddr(), relaycore.Config{
			Shards: *shards,
			Trace:  traceRelay,
			Events: traceEvents,
		})
		relay.Subscribe(bIn.LocalAddr()) // first subscriber: primary viewer
		for i := 1; i < *fanout; i++ {
			sink := mkConn()
			sinkConns = append(sinkConns, sink)
			relay.Subscribe(sink.LocalAddr())
			go func(c net.PacketConn) {
				buf := make([]byte, 2048)
				for {
					if _, _, err := c.ReadFrom(buf); err != nil {
						return
					}
					sinkPkts.Add(1)
				}
			}(sink)
		}
		go relay.Run()
		defer relay.Close()
		for _, c := range sinkConns {
			defer c.Close()
		}
		aOutPeer = socks[0].LocalAddr()
		bInPeer = socks[0].LocalAddr()
		fmt.Printf("relaying A's media to %d subscribers\n", relay.Subscribers())
	}

	// Debug server starts after the relay exists so its endpoints can be
	// mounted alongside the registry pages.
	if *debug != "" {
		extra := map[string]http.Handler{
			"/debugz/frames": frametrace.FramesHandler(traceSend, traceRelay, traceRecv),
			"/debugz/stages": frametrace.StagesHandler(traceSend, traceRelay, traceRecv),
			"/debugz/events": frametrace.EventsHandler(traceEvents),
		}
		if relay != nil {
			extra["/debugz/subscribers"] = relay.SubscribersHandler()
		}
		if _, url, err := telemetry.ServeDebugWith(*debug, telemetry.Default, extra); err != nil {
			log.Fatalf("debug server: %v", err)
		} else {
			fmt.Printf("debug server on %s/debugz\n", url)
		}
	}

	// SIGQUIT prints a compact subscriber table (depth vs limit, drops,
	// retransmissions, REMB, reverse-path age) without stopping the run.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGQUIT)
	go func() {
		for range sigc {
			if relay == nil {
				fmt.Println("SIGQUIT: no relay (run with -fanout for the subscriber table)")
				continue
			}
			subs := relay.Stats().Subs
			fmt.Printf("%-4s %-22s %9s %9s %8s %6s %6s %6s %4s %4s %10s %9s\n",
				"id", "addr", "enqueued", "sent", "dropped", "depth", "limit", "retx", "rung", "rsw", "remb_mbps", "idle_ms")
			for _, s := range subs {
				fmt.Printf("%-4d %-22s %9d %9d %8d %6d %6d %6d %4d %4d %10.1f %9.0f\n",
					s.ID, s.Addr, s.Enqueued, s.Sent, s.Dropped, s.Depth, s.Limit, s.Retx,
					s.Rung, s.RungSwitches, s.REMBBps/1e6, s.LastActiveAgeMs)
			}
		}
	}()

	// Note: both sites share camera geometry in this demo; a real
	// deployment exchanges calibration at setup (§A.1).
	siteA := mkSite("A", *videoA, aOut, aOutPeer, aIn, bOut.LocalAddr(), traceSend, nil, *ladder)
	siteB := mkSite("B", *videoB, bOut, aIn.LocalAddr(), bIn, bInPeer, nil, traceRecv, false)
	defer siteA.send.Close()
	defer siteB.send.Close()
	defer siteA.recv.Close()
	defer siteB.recv.Close()

	frames := int(*seconds * 30)
	ticker := time.NewTicker(time.Second / 30)
	defer ticker.Stop()
	for i := 0; i < frames; i++ {
		<-ticker.C
		if _, err := siteA.send.SendViews(siteA.video.Frame(i % siteA.video.NumFrames())); err != nil {
			log.Fatalf("A send: %v", err)
		}
		if _, err := siteB.send.SendViews(siteB.video.Frame(i % siteB.video.NumFrames())); err != nil {
			log.Fatalf("B send: %v", err)
		}
		if i%30 == 29 {
			fmt.Printf("t=%2ds  A: viewed %3d frames of %q   B: viewed %3d frames of %q\n",
				(i+1)/30, siteA.clouds.Load(), *videoB, siteB.clouds.Load(), *videoA)
		}
	}
	time.Sleep(300 * time.Millisecond) // drain jitter buffers
	fmt.Printf("conference over: A reconstructed %d clouds, B reconstructed %d\n",
		siteA.clouds.Load(), siteB.clouds.Load())
	for _, st := range []*site{siteA, siteB} {
		ss, rs := st.send.Stats(), st.recv.Stats()
		fmt.Printf("site %s send: %d frames, %d pkts, %.1f MB, rate %.1f Mbps, retx %d, pli-rx %d\n",
			st.name, ss.Frames, ss.Packets, float64(ss.Bytes)/1e6, ss.RateBps/1e6, ss.Retransmits, ss.PLIsReceived)
		fmt.Printf("site %s recv: %d pkts, %d decoded, %d concealed, nack %d, pli %d, est %.1f Mbps, jitter skip %d/%d\n",
			st.name, rs.Received, rs.Decoded, rs.Concealed, rs.NACKsSent, rs.PLIsSent, rs.EstRateBps/1e6,
			rs.Color.Skipped, rs.Depth.Skipped)
		if ss.Err != nil || rs.Err != nil {
			fmt.Printf("site %s errors: send=%v recv=%v\n", st.name, ss.Err, rs.Err)
		}
	}
	if relay != nil {
		st := relay.Stats()
		fmt.Printf("relay: %d subs, %d media pkts fanned to %d, drops %d, sinks got %d pkts\n",
			st.Subscribers, st.MediaPackets, st.FanoutPackets, st.Drops, sinkPkts.Load())
		fmt.Printf("relay feedback: pli %d fwd/%d deduped, nack %d fwd/%d coalesced, remb %d fwd, pose %d fwd\n",
			st.PLIForwarded, st.PLISuppressed, st.NACKForwarded, st.NACKCoalesced, st.REMBForwarded, st.PoseForwarded)
		fmt.Printf("relay retx: %d served from cache, %d escalated, %d cached, %d liveness evictions\n",
			st.RetxHits, st.RetxMisses, st.RetxCached, st.LivenessEvicted)
		if st.RungSwitches > 0 || *ladder {
			fmt.Printf("relay ladder: %d rung switches, subscribers per rung %v\n",
				st.RungSwitches, st.RungSubscribers)
		}
		for _, sh := range st.Shards {
			fmt.Printf("relay shard %d: %d subs, %d pkts routed, %d queues stolen by its workers\n",
				sh.ID, sh.Subscribers, sh.Routed, sh.Stolen)
		}
	}

	// Merge the A→B ledgers into per-frame timelines: hops stamped on the
	// primary viewer's path (sub 0) when relaying, every hop otherwise.
	col := frametrace.NewCollector()
	col.Add(traceSend)
	col.Add(traceRelay)
	col.Add(traceRecv)
	sub := frametrace.NoSub
	if relay != nil {
		sub = 0 // primary viewer (site B) was the first subscriber
	}
	tls := col.Merge(sub)
	rep := frametrace.Decompose(tls)
	fmt.Printf("trace A→B: %d frames merged, %d complete capture→reconstruct", rep.Frames, rep.Complete)
	if rep.EndToEnd.Count > 0 {
		fmt.Printf(", e2e p50 %.1f ms p99 %.1f ms (stage sum %.1f ms, reconcile %.2f%%)",
			rep.EndToEnd.P50Ms, rep.EndToEnd.P99Ms, rep.StageSumMeanMs, rep.ReconcilePct)
	}
	fmt.Println()
	if *traceDump != "" {
		f, err := os.Create(*traceDump)
		if err != nil {
			log.Fatalf("trace dump: %v", err)
		}
		if err := frametrace.WriteTimelinesJSONL(f, tls); err != nil {
			log.Fatalf("trace dump: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("trace dump: %v", err)
		}
		fmt.Printf("wrote %d frame timelines to %s\n", len(tls), *traceDump)
	}
}
