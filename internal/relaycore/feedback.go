package relaycore

import "time"

// Feedback aggregation state. Unlike the media path, which is sharded
// across cores, the reverse path stays centralized: its job is global
// deduplication (one PLI per window, one NACK per fragment, one REMB
// minimum across every subscriber), so it is serialized under the
// router's feedback mutex — RouteFeedback callers, Unsubscribe, and the
// key-frame re-arm all take it. None of the three structures is safe for
// unguarded concurrent use on its own. REMB messages additionally fan
// *in* to the reporting subscriber's queue (SubQueue.UpdateBandwidth)
// before min-tracking, driving the adaptive ring depth.

// rembMin maintains the minimum and maximum REMB across subscribers
// without a full map scan per message: the scan happens only when an
// extremum's owner moves its estimate past it or departs. The sender
// budget forwards the minimum on a single-rung stream (everyone receives
// the one encoding) and the maximum when the quality ladder is active
// (rung 0 serves the fastest class; slower classes ride cheaper rungs).
type rembMin struct {
	by     map[Key]float64
	minKey Key
	minVal float64
	maxKey Key
	maxVal float64
	valid  bool
}

func newREMBMin() *rembMin { return &rembMin{by: make(map[Key]float64)} }

// Update records subscriber k's estimate and returns the new minimum.
func (m *rembMin) Update(k Key, v float64) float64 {
	_, had := m.by[k]
	m.by[k] = v
	if !m.valid {
		m.minKey, m.minVal = k, v
		m.maxKey, m.maxVal = k, v
		m.valid = true
		return m.minVal
	}
	switch {
	case v <= m.minVal:
		m.minKey, m.minVal = k, v
	case had && k == m.minKey:
		// The slowest subscriber sped up: only now is a rescan needed.
		m.recompute()
	}
	switch {
	case v >= m.maxVal:
		m.maxKey, m.maxVal = k, v
	case had && k == m.maxKey:
		m.recompute()
	}
	return m.minVal
}

// Remove evicts a departed subscriber's entry. It returns the new minimum
// and whether any entries remain.
func (m *rembMin) Remove(k Key) (float64, bool) {
	if _, had := m.by[k]; !had {
		return m.minVal, m.valid
	}
	delete(m.by, k)
	if m.valid && (k == m.minKey || k == m.maxKey) {
		m.recompute()
	}
	return m.minVal, m.valid
}

// Max returns the maximum estimate (0 before any report).
func (m *rembMin) Max() float64 {
	if !m.valid {
		return 0
	}
	return m.maxVal
}

func (m *rembMin) recompute() {
	m.valid = false
	for k, v := range m.by {
		if !m.valid || v < m.minVal {
			m.minKey, m.minVal = k, v
		}
		if !m.valid || v > m.maxVal {
			m.maxKey, m.maxVal = k, v
		}
		m.valid = true
	}
}

// Len returns how many subscribers have reported an estimate.
func (m *rembMin) Len() int { return len(m.by) }

// nackKey identifies one media fragment: the (stream, seq, frag) triple a
// NACK names plus the quality rung the copy was encoded at. The wire NACK
// carries no rung — receivers don't know the ladder exists — so the router
// stamps in the requester's rung for that sequence (Subscriber.rungForSeq)
// before cache lookup. The retransmission cache (retxcache.go) indexes by
// the same key, so a cache miss escalates through the coalescer with no
// re-keying.
type nackKey struct {
	seq    uint32
	frag   uint16
	stream uint8
	rung   uint8
}

// nackCoalescer deduplicates NACKs for the same fragment across
// subscribers within a window: the first request is forwarded (and the
// retransmission fans out to everyone), repeats inside the window are
// dropped. The stamped map is swept opportunistically so a moving sequence
// window cannot grow it without bound.
type nackCoalescer struct {
	window  int64 // nanoseconds
	last    map[nackKey]int64
	inserts int
}

// nackWindow is how long duplicate requests for one fragment are coalesced:
// about one retransmission round trip.
const nackWindow = 50 * time.Millisecond

// nackSweepEvery bounds staleness-sweep frequency; nackMapMax forces a
// sweep when the map outgrows the plausible in-window working set.
const (
	nackSweepEvery = 512
	nackMapMax     = 8192
)

func newNACKCoalescer(windowNs int64) *nackCoalescer {
	return &nackCoalescer{window: windowNs, last: make(map[nackKey]int64)}
}

// ShouldForward reports whether this fragment request leaves for the
// sender, stamping it when so.
func (c *nackCoalescer) ShouldForward(k nackKey, now int64) bool {
	if t, ok := c.last[k]; ok && now-t < c.window {
		return false
	}
	c.last[k] = now
	c.inserts++
	if c.inserts >= nackSweepEvery || len(c.last) > nackMapMax {
		c.inserts = 0
		for k2, t := range c.last {
			if now-t >= c.window {
				delete(c.last, k2)
			}
		}
	}
	return true
}

// pliWindow is the PLI refresh window. It matches transport.PLITracker's
// resend interval: the sender-side storm guard admits one refresh per
// window anyway.
const pliWindow = 250 * time.Millisecond

// pliGate forwards at most one PLI per refresh window — the relay-side
// mirror of Sender.RequestKeyFrame's refresh-in-flight guard. A
// simultaneous PLI burst from every subscriber reaches the sender as one
// message (two across a window boundary).
type pliGate struct {
	window int64 // nanoseconds
	lastNs int64
	armed  bool
}

// ShouldForward reports whether a PLI at time now passes the gate.
func (g *pliGate) ShouldForward(now int64) bool {
	if g.armed && now-g.lastNs < g.window {
		return false
	}
	g.armed = true
	g.lastNs = now
	return true
}

// OnKeyFrame re-opens the gate: the refresh completed, so the next PLI
// starts a new cycle immediately.
func (g *pliGate) OnKeyFrame() { g.armed = false }
