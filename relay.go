package livo

import (
	"encoding/json"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"livo/internal/relaycore"
	"livo/internal/telemetry"
	"livo/internal/transport"
	"livo/internal/udpio"
)

// Relay is a selective-forwarding unit for multi-way conferencing — the
// paper leaves multi-way to future work (§3.1) but notes the opportunity of
// optimizing across receivers of a single sender; Relay is that building
// block. It forwards one sender's media packets to every subscribed
// receiver and aggregates the reverse path.
//
// The data plane lives in internal/relaycore (see DESIGN.md §7): media is
// loaded once into a refcounted pooled buffer and fanned out through
// per-subscriber bounded queues with dedicated writers, so one stalled
// receiver never head-of-line-blocks the rest; feedback is deduplicated
// (one PLI per refresh window, NACKs coalesced per fragment, REMB minimum
// forwarded) rather than mirrored. Relay itself is the UDP shell: one
// ingest loop per socket classifying packets by source and handing them to
// the router.
//
// The wire path batches at the kernel where the conns allow it (DESIGN.md
// §7): every conn is read through udpio.Reader straight into that socket's
// shard BufPool (zero copies on ingest) — one recvmmsg per visit on a udpio
// Socket, one datagram per visit on anything else — and a conn implementing
// relaycore.BatchWriter drains each writer-ring batch with one sendmmsg.
// Reads block — teardown unblocks them by poking a past read deadline after
// closing r.closed — so the idle relay makes zero syscalls.
type Relay struct {
	conns   []net.PacketConn
	readers []udpio.BatchReader // udpio.Reader(conns[i])
	router  *relaycore.Router

	closed    chan struct{}
	alreadyMu sync.Mutex
	already   bool
	wg        sync.WaitGroup

	err        atomic.Value // error — first fatal read error (Err)
	telReadErr *telemetry.Counter
	telRdBatch *telemetry.Histogram
	unregister func() // removes the livo_relay_syscalls_per_pkt source
}

// NewRelayGroup creates a relay over conns, forwarding the given sender's
// media to subscribers added with Subscribe; cfg sets the data plane's
// shard count and observability hooks (its zero value is the production
// relay). conns is one socket or a socket group — typically
// udpio.ListenGroup's SO_REUSEPORT set, one socket per data-plane shard,
// so the kernel steers inbound flows across ingest loops instead of one
// reader feeding every shard. Ingest loop i fills router.ShardPool(i);
// outbound packets leave through the socket picked by the subscriber's
// address hash (stable per destination, so per-subscriber ordering holds).
func NewRelayGroup(conns []net.PacketConn, sender net.Addr, cfg relaycore.Config) *Relay {
	if len(conns) == 0 {
		panic("livo: NewRelayGroup needs at least one conn")
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.Default
	}
	var out relaycore.Writer = conns[0]
	if len(conns) > 1 {
		out = groupConn{conns}
	}
	readers := make([]udpio.BatchReader, len(conns))
	for i, c := range conns {
		readers[i] = udpio.Reader(c)
	}
	r := &Relay{
		conns:      conns,
		readers:    readers,
		router:     relaycore.NewRouter(out, sender, cfg),
		closed:     make(chan struct{}),
		telReadErr: reg.Counter("livo_relay_read_errors_total"),
		telRdBatch: reg.Histogram("livo_relay_read_batch_pkts", []float64{1, 2, 4, 8, 16, 32, 64}),
	}
	// A ratio, not a sum: it reads right while one relay reports to reg, as
	// in every binary here.
	r.unregister = reg.Funcs(nil, map[string]func() float64{"livo_relay_syscalls_per_pkt": func() float64 {
		st := r.WireStats()
		return float64(st.ReadSyscalls+st.WriteSyscalls) / max(float64(st.ReadPackets+st.WritePackets), 1)
	}})
	return r
}

// groupConn fans writes across a reuseport socket group: each destination
// hashes to one member (the same avalanche mix the router uses for shard
// partitions, allocation-free for UDP addresses), so one subscriber's
// packets always take one socket and stay ordered. All members share the
// local address, so the source seen by peers is identical.
type groupConn struct{ conns []net.PacketConn }

func (g groupConn) pick(addr net.Addr) net.PacketConn {
	return g.conns[relaycore.KeyOf(addr).Hash()%uint64(len(g.conns))]
}

func (g groupConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	return g.pick(addr).WriteTo(p, addr)
}

func (g groupConn) WriteBatch(ps [][]byte, addr net.Addr) (int, error) {
	return relaycore.WriteBatch(g.pick(addr), ps, addr)
}

// Subscribe adds a receiver (idempotent per address). The first subscriber
// becomes the primary viewer (its poses drive the sender's culling).
func (r *Relay) Subscribe(addr net.Addr) { r.router.Subscribe(addr) }

// Unsubscribe removes a receiver: its send queue is torn down, its REMB
// entry is evicted (so the forwarded minimum can rise), and if it was the
// primary viewer the oldest remaining subscriber takes over. Reports
// whether the address was subscribed.
func (r *Relay) Unsubscribe(addr net.Addr) bool { return r.router.Unsubscribe(addr) }

// Subscribers returns the current subscriber count.
func (r *Relay) Subscribers() int { return r.router.Subscribers() }

// Primary returns the current primary viewer's address, or nil when there
// are no subscribers.
func (r *Relay) Primary() net.Addr { return r.router.Primary() }

// Stats snapshots the relay data plane (fan-out counts, per-subscriber
// queue depths and drops, feedback dedup counters).
func (r *Relay) Stats() relaycore.Stats { return r.router.Stats() }

// WireStats aggregates syscall accounting across the relay's sockets.
// Conns that are not udpio Sockets contribute only their truncation count.
func (r *Relay) WireStats() udpio.SocketStats {
	var agg udpio.SocketStats
	for _, c := range r.readers {
		if sc, ok := c.(interface{ Stats() udpio.SocketStats }); ok {
			st := sc.Stats()
			agg.ReadSyscalls += st.ReadSyscalls
			agg.ReadPackets += st.ReadPackets
			agg.WriteSyscalls += st.WriteSyscalls
			agg.WritePackets += st.WritePackets
			agg.Truncated += st.Truncated
			agg.RecvBufBytes = st.RecvBufBytes
			agg.SendBufBytes = st.SendBufBytes
			agg.Batched = agg.Batched || st.Batched
		}
	}
	return agg
}

// SubscribersHandler serves the per-subscriber queue snapshots (SubStats:
// depth vs adaptive limit, drops, retransmissions, last REMB, liveness age)
// as a JSON array — mounted as /debugz/subscribers by livo-conference.
func (r *Relay) SubscribersHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		subs := r.router.Stats().Subs
		if subs == nil {
			subs = []relaycore.SubStats{}
		}
		_ = json.NewEncoder(w).Encode(subs)
	})
}

// Run forwards packets until Close; call on its own goroutine. It spawns
// one ingest loop per conn and blocks until all of them exit.
func (r *Relay) Run() {
	var loops sync.WaitGroup
	for i, br := range r.readers {
		r.wg.Add(1)
		loops.Add(1)
		go func(i int, br udpio.BatchReader) {
			defer r.wg.Done()
			defer loops.Done()
			r.runBatchIngest(i, br)
		}(i, br)
	}
	loops.Wait()
}

// runBatchIngest drains one socket straight into its shard's BufPool: every
// slot is a blank pooled buffer, so a media packet is routed with zero
// copies — SetLen stamps the wire length and the router takes ownership
// of the reference; the emptied slot is refilled with a fresh blank.
// Feedback is parsed synchronously, so its slot (and its scratch address)
// is reused in place.
func (r *Relay) runBatchIngest(i int, br udpio.BatchReader) {
	pool := r.router.ShardPool(i)
	ms := make([]udpio.Message, udpio.DefaultBatch)
	bufs := make([]*relaycore.PacketBuf, len(ms))
	for j := range ms {
		bufs[j] = pool.GetBlank()
		ms[j].Buf = bufs[j].Raw()
	}
	defer func() {
		for _, b := range bufs {
			b.Release()
		}
	}()
	for {
		got, err := br.ReadBatch(ms)
		if err != nil {
			if r.fatalReadErr(err) {
				return
			}
			continue
		}
		r.telRdBatch.Observe(float64(got))
		for j := 0; j < got; j++ {
			n := ms[j].N
			if n <= 0 {
				continue // empty or truncated datagram
			}
			from := ms[j].Addr
			if r.router.FromSender(from) {
				if ms[j].Buf[0] != transport.MediaMagic {
					continue // only media fans out; the slot is reused
				}
				pb := bufs[j]
				pb.SetLen(n)
				bufs[j] = pool.GetBlank()
				ms[j].Buf = bufs[j].Raw()
				r.router.RouteMedia(pb)
				continue
			}
			r.router.RouteFeedback(ms[j].Buf[:n], from)
		}
	}
}

// fatalReadErr classifies an ingest read error: during teardown every
// error is the expected unblock; otherwise timeouts (a poked deadline)
// retry and anything else stops the loop and is recorded so operators can
// distinguish a dead relay from an idle one.
func (r *Relay) fatalReadErr(err error) bool {
	select {
	case <-r.closed:
		return true
	default:
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return false
	}
	r.err.CompareAndSwap(nil, err)
	r.telReadErr.Inc()
	return true
}

// Err returns the first fatal read error that stopped Run, or nil. It
// mirrors SendSession.Err: a relay whose socket died mid-conference
// reports why instead of silently going quiet.
func (r *Relay) Err() error {
	if err, ok := r.err.Load().(error); ok {
		return err
	}
	return nil
}

// Close stops the relay and its subscriber writers (the caller owns the
// connections). Closing an already-closed relay is a no-op, matching
// Router.Close.
func (r *Relay) Close() error {
	r.alreadyMu.Lock()
	if r.already {
		r.alreadyMu.Unlock()
		return nil
	}
	r.already = true
	r.alreadyMu.Unlock()
	close(r.closed)
	for _, c := range r.conns {
		// Unblock every ingest loop's blocking read; closed is already
		// observable, so the loops exit instead of spinning on timeouts.
		_ = c.SetReadDeadline(time.Now())
	}
	r.wg.Wait()
	r.router.Close()
	r.unregister()
	return nil
}
