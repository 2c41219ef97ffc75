package relaycore

import "livo/internal/transport"

// Rung policy: which quality-ladder rung each subscriber is served, decided
// in one place. Nothing in this file starts a goroutine, takes a lock or
// reads a clock — callers pass time in and own the synchronisation
// (Router.fbMu for rungRates, each SubQueue's lock for its rungState), so
// the whole policy is table-testable (rung_test.go).
//
//	(per-rung byte totals, now)            → rungRates.observe → per-rung rates
//	(rates, rungs seen, REMB, target)      → rungRates.pick    → (target, downswitch?)
//	(frame seq, rung, key, first fragment) → rungState.admit   → (admit?, committed?)
//
// A single-rung stream is a ladder of one: only rung 0 is ever seen, pick
// always answers 0, nothing is ever pending and admit passes every packet.

// A rung is affordable when its measured bitrate fits inside the
// subscriber's REMB with rungDownHeadroom to spare; moving back up to a
// more expensive rung additionally requires rungUpHeadroom (hysteresis, so
// an estimate hovering at a rung's cost does not flap). Rates refresh at
// most every rungRateMinIntervalNs and blend with rungRateAlpha.
const (
	rungDownHeadroom            = 0.9
	rungUpHeadroom              = 0.75
	rungRateMinIntervalNs int64 = 50e6
	rungRateAlpha               = 0.5
)

// rungHorizon is how many frames behind the newest one a packet can still
// be in flight (a reordered tail, a sender retransmission answering a
// NACK): about two seconds at 30 fps, twice the retransmission cache's
// age. A seq further back than that is a sender that restarted its
// sequence space, not a late packet.
const rungHorizon = 64

// rungRates estimates what each rung of the stream costs, from the
// cumulative per-rung wire-byte counters the media path keeps.
type rungRates struct {
	rate     [transport.MaxRungs]float64 // EWMA bitrate, bits/s
	total    [transport.MaxRungs]int64   // newest byte totals; a rung is seen once > 0
	folded   [transport.MaxRungs]int64   // byte totals at the last fold
	foldedNs int64                       // time of the last fold (0: none yet)
}

// observe folds the byte totals at time now (ns) into the rate estimates.
// The first call only records baselines; later calls closer together than
// rungRateMinIntervalNs are skipped so a REMB burst cannot alias the rates.
func (r *rungRates) observe(total [transport.MaxRungs]int64, now int64) {
	r.total = total
	if r.foldedNs == 0 {
		r.folded, r.foldedNs = total, now
		return
	}
	dt := now - r.foldedNs
	if dt < rungRateMinIntervalNs {
		return
	}
	sec := float64(dt) / 1e9
	for i := range r.rate {
		inst := float64(total[i]-r.folded[i]) * 8 / sec
		if r.rate[i] == 0 {
			r.rate[i] = inst
		} else {
			r.rate[i] += rungRateAlpha * (inst - r.rate[i])
		}
	}
	r.folded, r.foldedNs = total, now
}

// rungs returns how many distinct rungs the stream has carried.
func (r *rungRates) rungs() int {
	n := 0
	for _, t := range r.total {
		if t > 0 {
			n++
		}
	}
	return n
}

// pick returns the rung a subscriber estimating bps should be assigned,
// given the one it is assigned now: the lowest rung id — rungs are ordered
// best-first — whose rate fits inside bps with headroom, or the cheapest
// rung seen when nothing fits. Moving up demands the extra headroom;
// without it the current target is returned. downswitch reports a move to
// a cheaper rung, which the caller accelerates with a PLI (an upswitch
// waits for the GOP's next periodic key frame).
func (r *rungRates) pick(bps float64, target uint8) (next uint8, downswitch bool) {
	best, cheapest := -1, -1
	for i := range r.rate {
		if r.total[i] == 0 {
			continue
		}
		cheapest = i
		if best < 0 && r.rate[i] <= bps*rungDownHeadroom {
			best = i
		}
	}
	if best < 0 {
		best = cheapest
	}
	if best < 0 || uint8(best) == target {
		return target, false
	}
	if uint8(best) < target && r.rate[best] > bps*rungUpHeadroom {
		return target, false // not comfortably affordable yet: hold the cheaper rung
	}
	return uint8(best), uint8(best) > target
}

// rungState is one subscriber's position on the ladder. The zero value is
// a subscriber on rung 0 with nothing pending.
//
// Invariant: the rung of a frame seq, once settled, never changes — so no
// frame reaches a subscriber with two fragments, or its colour and depth,
// on different rungs. A seq settles when one of its packets is admitted or
// a switch commits on it; open is the first seq still unsettled.
type rungState struct {
	cur, prev, target uint8
	switchSeq         uint32  // first seq served on cur
	floorSeq          uint32  // first seq served on prev; older seqs' rung is forgotten
	open              uint64  // every seq below this is settled
	switches          int64   // committed switches
	selBps            float64 // the estimate that chose target (rung-switch event)
}

// retarget records a new assignment; it takes effect at the next commit.
func (s *rungState) retarget(target uint8, bps float64) {
	s.target, s.selBps = target, bps
}

// rungFor returns the rung frame seq is served on: cur from the last
// switch on, prev between the last two switches. ok is false for a seq
// older than that, whose rung is no longer known.
func (s *rungState) rungFor(seq uint32) (rung uint8, ok bool) {
	switch {
	case seq >= s.switchSeq:
		return s.cur, true
	case seq >= s.floorSeq:
		return s.prev, true
	}
	return 0, false
}

// servedOn returns the rung frame seq was delivered on, for resolving a
// NACK (which carries no rung) to the copy the subscriber was sent. ok is
// false when nothing of seq has been admitted yet or its rung is forgotten:
// retransmitting any copy then could put one frame on two rungs.
func (s *rungState) servedOn(seq uint32) (rung uint8, ok bool) {
	if uint64(seq) >= s.open {
		return 0, false
	}
	return s.rungFor(seq)
}

// admit decides one media packet. A pending switch commits only at the
// first data fragment of a key frame — the one boundary a stateful decoder
// can cross — and only when that frame's seq is still open, so a frame
// that has started on one rung finishes on it and a seq commits at most
// once, whichever stream's or rung's copy arrives first. The packet is
// then admitted when its rung is the one its seq is served on.
func (s *rungState) admit(seq uint32, rung uint8, key, first bool) (admit, committed bool) {
	if uint64(seq)+rungHorizon < s.open {
		// A restarted sender: its frames are a new sequence space, served
		// on the current rung, with any pending switch free to commit.
		s.open, s.switchSeq, s.floorSeq = 0, 0, 0
	}
	if s.target != s.cur && key && first && uint64(seq) >= s.open {
		s.floorSeq, s.switchSeq = s.switchSeq, seq
		s.prev, s.cur = s.cur, s.target
		s.switches++
		s.open = uint64(seq) + 1
		committed = true
	}
	if want, ok := s.rungFor(seq); !ok || rung != want {
		return false, committed
	}
	if uint64(seq) >= s.open {
		s.open = uint64(seq) + 1
	}
	return true, committed
}
