package relaycore

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"livo/internal/transport"
)

// mediaWireRung builds one on-the-wire media packet carrying a quality-rung
// id in its flags byte.
func mediaWireRung(stream uint8, seq uint32, frag, count uint16, key bool, rung uint8, payload []byte) []byte {
	p := transport.Packet{
		Stream: stream, FrameSeq: seq, FragIndex: frag, FragCount: count,
		Key: key, Rung: rung, Payload: payload,
	}
	return append([]byte{transport.MediaMagic}, p.Marshal()...)
}

// ladderHarness streams a 3-rung ladder into a router frame by frame and
// records what one subscriber received. Fragment counts shrink up the
// ladder (4/2/1 × 300 B) so the per-rung rate estimator sees distinct
// bitrates: at the 33 ms frame cadence rung 0 ≈ 300 kb/s, rung 1 ≈ 150,
// rung 2 ≈ 75.
type ladderHarness struct {
	t   *testing.T
	r   *Router
	clk *fakeClock
	seq uint32
}

var ladderFrags = [3]uint16{4, 2, 1}

// frame routes one frame at every rung and advances the clock one tick.
func (h *ladderHarness) frame(key bool) {
	pool := h.r.Pool()
	payload := make([]byte, 300)
	for rung := uint8(0); rung < 3; rung++ {
		n := ladderFrags[rung]
		for f := uint16(0); f < n; f++ {
			h.r.RouteMedia(pool.Load(mediaWireRung(1, h.seq, f, n, key, rung, payload)))
		}
	}
	h.seq++
	h.clk.Advance(33 * time.Millisecond)
}

// deliveredRungs reassembles one subscriber's delivery log into the
// per-frame view (seq, rung, key) in seq order, failing the test if any
// frame mixed rungs — between two fragments, or between its colour and
// depth streams — the exact corruption a stateful decoder cannot survive.
type frameRung struct {
	seq  uint32
	rung uint8
	key  bool
}

func deliveredRungs(t *testing.T, rec *recWriter, sub net.Addr) []frameRung {
	t.Helper()
	bySeq := map[uint32]frameRung{}
	for _, b := range rec.payloads(sub) {
		if len(b) < 2 || b[0] != transport.MediaMagic {
			continue
		}
		p, err := transport.Unmarshal(b[1:])
		if err != nil {
			t.Fatalf("undeliverable wire packet: %v", err)
		}
		if p.Parity {
			continue
		}
		if fr, seen := bySeq[p.FrameSeq]; seen && fr.rung != p.Rung {
			t.Fatalf("sub %s: frame %d delivered with mixed rungs %d and %d (stream %d)",
				sub, p.FrameSeq, fr.rung, p.Rung, p.Stream)
		}
		bySeq[p.FrameSeq] = frameRung{seq: p.FrameSeq, rung: p.Rung, key: p.Key}
	}
	out := make([]frameRung, 0, len(bySeq))
	for _, fr := range bySeq {
		out = append(out, fr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// TestLadderSwitchAtKeyBoundary drives one subscriber through a full
// down/up cycle: REMB collapse selects the quarter rung and the delivered
// stream switches exactly at a key frame (after the relay pulled one
// forward via PLI); REMB recovery switches back up at the next periodic
// key, within one GOP. Every delivered frame is single-rung and every rung
// transition lands on a key frame, so a stateful decoder crosses each
// switch without error. Runs at shards=1 and 4 (tier-1 repeats this under
// -race), and checks the pool drains to zero at close with all three rungs
// in flight.
func TestLadderSwitchAtKeyBoundary(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			clk := &fakeClock{}
			rec := newRecWriter()
			cfg := testConfig()
			cfg.Shards = shards
			cfg.now = clk.Now
			r := NewRouter(rec, senderAddr(), cfg)
			h := &ladderHarness{t: t, r: r, clk: clk}

			sub := udp(1)
			r.Subscribe(sub)

			const gop = 10
			remb := func(bps float64) { r.RouteFeedback(transport.AppendREMB(nil, bps), sub) }

			// Phase A: plenty of bandwidth. Two GOPs warm up the per-rung
			// rate estimator (first REMB only records baselines).
			for i := 0; i < 2*gop; i++ {
				h.frame(h.seq%gop == 0)
				remb(1e6)
			}
			if !r.WaitIdle(2 * time.Second) {
				t.Fatal("router did not drain phase A")
			}
			for _, fr := range deliveredRungs(t, rec, sub) {
				if fr.rung != 0 {
					t.Fatalf("frame %d on rung %d before any downswitch, want 0", fr.seq, fr.rung)
				}
			}

			// Phase B: collapse to 120 kb/s — only the 75 kb/s quarter rung
			// fits under the 0.9 headroom. The downswitch must ride the PLI
			// path; the "sender" responds with an immediate key frame.
			remb(120e3)
			pliSeen := false
			for _, p := range rec.payloads(senderAddr()) {
				if len(p) > 0 && p[0] == transport.FBPLI {
					pliSeen = true
				}
			}
			if !pliSeen {
				t.Fatal("downswitch did not forward a PLI to the sender")
			}
			h.frame(true) // the PLI-pulled key: switch commits here
			for i := 0; i < gop-1; i++ {
				h.frame(false)
				remb(120e3)
			}
			if !r.WaitIdle(2 * time.Second) {
				t.Fatal("router did not drain phase B")
			}

			// Phase C: recovery. No PLI this direction — the upswitch waits
			// for the next periodic key, i.e. commits within one GOP.
			remb(1e6)
			upReq := h.seq // frame index when the upswitch was requested
			for i := 0; i < 2*gop; i++ {
				h.frame(h.seq%gop == 0)
				remb(1e6)
			}
			if !r.WaitIdle(2 * time.Second) {
				t.Fatal("router did not drain phase C")
			}

			frames := deliveredRungs(t, rec, sub)
			if len(frames) == 0 {
				t.Fatal("no frames delivered")
			}
			sawDown, sawUp := false, false
			for i := 1; i < len(frames); i++ {
				prev, cur := frames[i-1], frames[i]
				if cur.rung != prev.rung {
					if !cur.key {
						t.Fatalf("rung switch %d→%d at frame %d which is not a key frame",
							prev.rung, cur.rung, cur.seq)
					}
					if cur.rung > prev.rung {
						sawDown = true
					} else {
						sawUp = true
						if cur.seq-upReq > gop {
							t.Fatalf("upswitch took %d frames (> one GOP of %d)", cur.seq-upReq, gop)
						}
					}
				}
			}
			if !sawDown || !sawUp {
				t.Fatalf("switch coverage: down=%v up=%v, want both", sawDown, sawUp)
			}
			last := frames[len(frames)-1]
			if last.rung != 0 {
				t.Fatalf("final rung = %d after recovery, want 0", last.rung)
			}

			st := r.Stats()
			if st.RungSwitches != 2 {
				t.Fatalf("RungSwitches = %d, want 2 (one down, one up)", st.RungSwitches)
			}
			if len(st.Subs) != 1 || st.Subs[0].Rung != 0 || st.Subs[0].RungSwitches != 2 {
				t.Fatalf("per-sub rung stats = %+v, want rung 0 with 2 switches", st.Subs)
			}
			if st.RungSubscribers[0] != 1 {
				t.Fatalf("RungSubscribers = %v, want subscriber counted on rung 0", st.RungSubscribers)
			}

			r.Close()
			if st := r.Stats(); st.PoolLive != 0 {
				t.Fatalf("PoolLive = %d after close with rungs active, want 0", st.PoolLive)
			}
		})
	}
}

// TestLadderClassesConverge is the heterogeneous fan-out the ladder exists
// for: three classes of eight subscribers, each advertising one constant
// REMB that affords exactly one rung (the harness's rungs cost ≈ 310 / 155
// / 78 kb/s on the wire; 0.9 of 1 Mb/s, 250 kb/s and 120 kb/s clear rung
// 0, 1 and 2 respectively and not the rung above). Loss-free, on the fake
// clock: after the warm-up GOPs every subscriber sits on its class's rung,
// receives at least 99% of the window's frames, each on that one rung, and
// the router drops nothing.
func TestLadderClassesConverge(t *testing.T) {
	const (
		perClass, gop    = 8, 10
		warmup, measured = 4 * gop, 10 * gop
	)
	classes := []struct {
		bps  float64
		rung uint8
	}{{1e6, 0}, {250e3, 1}, {120e3, 2}}

	clk := &fakeClock{}
	rec := newRecWriter()
	cfg := testConfig()
	cfg.now = clk.Now
	r := NewRouter(rec, senderAddr(), cfg)
	defer r.Close()
	h := &ladderHarness{t: t, r: r, clk: clk}

	type member struct {
		addr net.Addr
		remb []byte
		rung uint8
	}
	var subs []member
	for ci, cl := range classes {
		for j := 0; j < perClass; j++ {
			m := member{udp(1 + ci*perClass + j), transport.AppendREMB(nil, cl.bps), cl.rung}
			r.Subscribe(m.addr)
			subs = append(subs, m)
		}
	}
	for i := 0; i < warmup+measured; i++ {
		h.frame(h.seq%gop == 0)
		for _, m := range subs {
			r.RouteFeedback(m.remb, m.addr)
		}
		if !r.WaitIdle(2 * time.Second) {
			t.Fatalf("router did not drain frame %d", i)
		}
	}

	st := r.Stats()
	if st.Drops != 0 {
		t.Fatalf("drops = %d on a loss-free fan-out, want 0", st.Drops)
	}
	onRung := map[string]uint8{}
	for _, ss := range st.Subs {
		onRung[ss.Addr] = ss.Rung
	}
	for _, m := range subs {
		if got := onRung[m.addr.String()]; got != m.rung {
			t.Errorf("sub %s (class rung %d) ended on rung %d", m.addr, m.rung, got)
		}
		got := 0
		for _, fr := range deliveredRungs(t, rec, m.addr) { // fails on any mixed-rung frame
			if fr.seq < warmup {
				continue
			}
			if fr.rung != m.rung {
				t.Errorf("sub %s: frame %d on rung %d after warm-up, want %d", m.addr, fr.seq, fr.rung, m.rung)
			}
			got++
		}
		if got*100 < measured*99 {
			t.Errorf("sub %s received %d of %d frames, want ≥ 99%%", m.addr, got, measured)
		}
	}
}

// TestRouterRandomSchedule hammers the router the way a reuseport relay
// does — several feedback loops and several media loops at once — under a
// seeded random schedule: two producers (colour, depth) route a 3-rung
// ladder with each frame's rung copies in shuffled order while four
// feedback goroutines fire REMBs that straddle every rung boundary (plus
// NACKs, PLIs and probes) at random subscribers and from a stranger. Per
// subscriber it asserts the data plane's invariants: no frame on two
// rungs across fragments or streams, rung changes only across a key-frame
// boundary, enqueued == sent + dropped + depth; and PoolLive() == 0 after
// Close. Tier-1 runs it under -race, which is what makes RouteFeedback's
// concurrency contract a tested one.
func TestRouterRandomSchedule(t *testing.T) {
	const (
		subs, feeders = 6, 4
		frames, gop   = 80, 5
	)
	// Both streams at 33 ms a frame cost ≈ 620/310/155 kb/s per rung;
	// these estimates sit either side of each rung's 0.9 and 0.75 lines.
	rembs := []float64{2e6, 850e3, 700e3, 680e3, 420e3, 350e3, 340e3, 210e3, 180e3, 165e3, 50e3}
	for _, shards := range []int{1, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				clk := &fakeClock{}
				clk.Advance(time.Second)
				rec := newRecWriter()
				cfg := testConfig()
				cfg.Shards = shards
				cfg.now = clk.Now
				r := NewRouter(rec, senderAddr(), cfg)
				addrs := make([]net.Addr, subs)
				for i := range addrs {
					addrs[i] = udp(i + 1)
					r.Subscribe(addrs[i])
				}
				stranger := udp(500)

				var producers, feeds sync.WaitGroup
				done := make(chan struct{})
				// The streams may drift apart, but like a real sender's not
				// without bound: well inside rungHorizon frames.
				var progress [2]atomic.Uint32
				var fed atomic.Int64 // feedback messages routed so far
				for p, stream := range []uint8{transport.StreamColor, transport.StreamDepth} {
					producers.Add(1)
					go func(p int, stream uint8) {
						defer producers.Done()
						rng := rand.New(rand.NewSource(seed*100 + int64(p)))
						pool := r.ShardPool(p)
						payload := make([]byte, 300)
						fedMark := int64(-4)
						for seq := uint32(0); seq < frames; seq++ {
							// Nor may the media outrun the feedback: on a busy
							// host the feeders can otherwise get so few turns
							// while frames flow that no rung ever changes.
							for seq > progress[1-p].Load()+rungHorizon/4 || fed.Load() < fedMark+4 {
								runtime.Gosched()
							}
							fedMark = fed.Load()
							progress[p].Store(seq)
							for _, rung := range rng.Perm(3) {
								n := ladderFrags[rung]
								for f := uint16(0); f < n; f++ {
									r.RouteMedia(pool.Load(mediaWireRung(stream, seq, f, n, seq%gop == 0, uint8(rung), payload)))
								}
								runtime.Gosched()
							}
							if p == 0 {
								clk.Advance(33 * time.Millisecond)
							}
						}
					}(p, stream)
				}
				for g := 0; g < feeders; g++ {
					feeds.Add(1)
					go func(g int) {
						defer feeds.Done()
						rng := rand.New(rand.NewSource(seed*1000 + int64(g)))
						for {
							select {
							case <-done:
								return
							default:
							}
							from := addrs[rng.Intn(subs)]
							if rng.Intn(16) == 0 {
								from = stranger
							}
							switch k := rng.Intn(20); {
							case k < 14:
								r.RouteFeedback(transport.AppendREMB(nil, rembs[rng.Intn(len(rembs))]), from)
							case k < 17:
								stream := transport.StreamColor + uint8(rng.Intn(2))
								r.RouteFeedback(transport.MarshalNACK(stream, uint32(rng.Intn(frames)), uint16(rng.Intn(4))), from)
							case k < 18:
								r.RouteFeedback([]byte{transport.FBPLI}, from)
							case k < 19:
								r.RouteFeedback([]byte{transport.FBPing, 1, 2, 3, 4, 5, 6, 7, 8}, from)
							default:
								r.RouteFeedback([]byte{transport.FBPose, byte(g)}, from)
							}
							fed.Add(1)
							runtime.Gosched()
						}
					}(g)
				}
				producers.Wait()
				close(done)
				feeds.Wait()
				if !r.WaitIdle(10 * time.Second) {
					t.Fatal("router did not drain")
				}

				st := r.Stats()
				for _, ss := range st.Subs {
					if ss.Enqueued != ss.Sent+ss.Dropped+ss.Depth {
						t.Errorf("sub %s: enqueued %d != sent %d + dropped %d + depth %d",
							ss.Addr, ss.Enqueued, ss.Sent, ss.Dropped, ss.Depth)
					}
				}
				var switches int64
				for _, a := range addrs {
					fr := deliveredRungs(t, rec, a)
					if len(fr) == 0 {
						t.Fatalf("sub %s received nothing", a)
					}
					for i := 1; i < len(fr); i++ {
						if fr[i].rung == fr[i-1].rung {
							continue
						}
						switches++
						// A change of rung must straddle a key frame's seq
						// (the key itself can be missing: its new-rung copy
						// may have passed before the switch was requested).
						if fr[i].seq/gop == fr[i-1].seq/gop {
							t.Errorf("sub %s: rung %d→%d between frames %d and %d, inside one GOP",
								a, fr[i-1].rung, fr[i].rung, fr[i-1].seq, fr[i].seq)
						}
					}
				}
				if switches == 0 || st.RungSwitches < switches {
					t.Errorf("%d rung changes delivered, router counted %d: want some, and counted ≥ delivered",
						switches, st.RungSwitches)
				}
				r.Close()
				if live := r.Stats().PoolLive; live != 0 {
					t.Fatalf("PoolLive = %d after Close, want 0", live)
				}
			})
		}
	}
}
