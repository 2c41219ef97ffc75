package netem

import (
	"math/rand"

	"livo/internal/telemetry"
)

// Chaos injects the fault modes a best-effort network exhibits beyond the
// capacity limits Link models: bursty loss, duplication, reordering, and
// payload corruption. Loss follows the two-state Gilbert–Elliott model —
// packets are dropped i.i.d. at a low rate in the Good state and at a high
// rate in the Bad (burst) state, with per-packet Markov transitions between
// the two — which reproduces the clustered losses of real wireless links
// that an i.i.d. LossRate cannot. All randomness is driven by one seeded
// source so a chaos schedule is exactly reproducible.
type Chaos struct {
	cfg ChaosConfig
	rng *rand.Rand
	bad bool

	sent       int
	dropped    int
	duplicated int
	reordered  int
	flipped    int
	bursts     int

	// Optional telemetry counters (Instrument); nil means uninstrumented.
	mDropped, mDuplicated, mReordered, mFlipped, mBursts *telemetry.Counter
}

// ChaosConfig parameterizes a Chaos injector. Zero-valued knobs disable
// their fault mode, so the zero config is a transparent pass-through.
type ChaosConfig struct {
	// Seed initializes the injector's private random source.
	Seed int64

	// PEnterBurst is the per-packet probability of entering the Bad state
	// from Good; PExitBurst of returning to Good. The stationary fraction of
	// time spent in a burst is PEnterBurst/(PEnterBurst+PExitBurst).
	PEnterBurst float64
	PExitBurst  float64
	// LossGood and LossBad are the drop probabilities in each state.
	LossGood float64
	LossBad  float64

	// DupProb duplicates a delivered packet (both copies arrive).
	DupProb float64
	// ReorderProb delays a delivered packet by ReorderDelay seconds, so it
	// arrives behind packets sent after it.
	ReorderProb  float64
	ReorderDelay float64
	// BitFlipProb corrupts a delivered packet by flipping one random bit of
	// a private copy (the caller's buffer is never mutated).
	BitFlipProb float64
}

// DefaultChaosConfig is the acceptance scenario of the robustness tests:
// ~5% loss concentrated in bursts (stationary Bad fraction ~9% at 50% loss),
// light duplication and reordering, and occasional single-bit corruption.
func DefaultChaosConfig(seed int64) ChaosConfig {
	return ChaosConfig{
		Seed:        seed,
		PEnterBurst: 0.01,
		PExitBurst:  0.10,
		LossGood:    0.005,
		LossBad:     0.5,
		DupProb:     0.01,
		ReorderProb: 0.02, ReorderDelay: 0.03,
		BitFlipProb: 0.002,
	}
}

// BurstyLossConfig builds a loss-only Gilbert–Elliott schedule whose
// long-run average drop rate is approximately avgLoss, with losses
// clustered in bursts (50% loss inside a burst, mean burst length 4
// packets, ~2% of time in bursts). The good-state rate is solved from the
// stationary burst fraction so the average comes out right; avgLoss below
// the bursts' own contribution clamps the good state to lossless. Used by
// the relay loss-recovery harness at avgLoss = 0.02.
func BurstyLossConfig(seed int64, avgLoss float64) ChaosConfig {
	const pEnter, pExit, lossBad = 0.005, 0.25, 0.5
	f := pEnter / (pEnter + pExit) // stationary fraction of time in Bad
	lossGood := (avgLoss - f*lossBad) / (1 - f)
	if lossGood < 0 {
		lossGood = 0
	}
	return ChaosConfig{
		Seed:        seed,
		PEnterBurst: pEnter,
		PExitBurst:  pExit,
		LossGood:    lossGood,
		LossBad:     lossBad,
	}
}

// Delivery is one copy of a packet that survives the injector.
type Delivery struct {
	Payload []byte
	// ExtraDelay is added to the packet's normal arrival time (reordering).
	ExtraDelay float64
	// Flipped marks payloads corrupted by a bit flip.
	Flipped bool
}

// NewChaos builds an injector from cfg.
func NewChaos(cfg ChaosConfig) *Chaos {
	return &Chaos{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Instrument publishes the injector's fault counters to reg as
// livo_chaos_* series, so experiments can assert that injected faults were
// actually exercised (not just that decode output survived).
func (c *Chaos) Instrument(reg *telemetry.Registry) {
	c.mDropped = reg.Counter("livo_chaos_dropped_total")
	c.mDuplicated = reg.Counter("livo_chaos_duplicated_total")
	c.mReordered = reg.Counter("livo_chaos_reordered_total")
	c.mFlipped = reg.Counter("livo_chaos_flipped_total")
	c.mBursts = reg.Counter("livo_chaos_bursts_total")
}

// Apply passes one packet through the injector and returns the copies that
// survive: nil when dropped, one Delivery normally, two when duplicated.
func (c *Chaos) Apply(payload []byte) []Delivery {
	c.sent++
	if c.bad {
		if c.rng.Float64() < c.cfg.PExitBurst {
			c.bad = false
		}
	} else if c.rng.Float64() < c.cfg.PEnterBurst {
		c.bad = true
		c.bursts++
		c.mBursts.Inc()
	}
	loss := c.cfg.LossGood
	if c.bad {
		loss = c.cfg.LossBad
	}
	if loss > 0 && c.rng.Float64() < loss {
		c.dropped++
		c.mDropped.Inc()
		return nil
	}
	d := Delivery{Payload: payload}
	if c.cfg.BitFlipProb > 0 && len(payload) > 0 && c.rng.Float64() < c.cfg.BitFlipProb {
		cp := append([]byte(nil), payload...)
		bit := c.rng.Intn(len(cp) * 8)
		cp[bit/8] ^= 1 << (bit % 8)
		d.Payload = cp
		d.Flipped = true
		c.flipped++
		c.mFlipped.Inc()
	}
	if c.cfg.ReorderProb > 0 && c.rng.Float64() < c.cfg.ReorderProb {
		d.ExtraDelay = c.cfg.ReorderDelay
		c.reordered++
		c.mReordered.Inc()
	}
	out := []Delivery{d}
	if c.cfg.DupProb > 0 && c.rng.Float64() < c.cfg.DupProb {
		out = append(out, Delivery{Payload: d.Payload, ExtraDelay: d.ExtraDelay})
		c.duplicated++
		c.mDuplicated.Inc()
	}
	return out
}

// Sent returns how many packets entered the injector.
func (c *Chaos) Sent() int { return c.sent }

// Dropped returns how many packets the loss model consumed.
func (c *Chaos) Dropped() int { return c.dropped }

// Duplicated returns how many packets were delivered twice.
func (c *Chaos) Duplicated() int { return c.duplicated }

// Reordered returns how many deliveries were delayed for reordering.
func (c *Chaos) Reordered() int { return c.reordered }

// Flipped returns how many deliveries carry a corrupted payload.
func (c *Chaos) Flipped() int { return c.flipped }

// Bursts returns how many Good→Bad transitions occurred.
func (c *Chaos) Bursts() int { return c.bursts }
