package transport

// PLITracker is the receiver half of the Picture Loss Indication state
// machine (§A.1). When a stream becomes undecodable — a skipped frame broke
// the prediction chain, or a packet was corrupted in flight — the receiver
// requests a key frame from the sender. The tracker turns that condition
// into a bounded PLI schedule: one indication immediately, then periodic
// re-sends while the recovery IDR has not arrived (the PLI or the IDR can
// themselves be lost), and silence once it has. Without the in-flight state
// a burst of undecodable frames would emit a PLI per frame — a PLI storm —
// and every storming PLI would force another IDR at the sender, wasting the
// bandwidth the recovery needs.
type PLITracker struct {
	// resendInterval is how long to await the recovery key frame before
	// re-emitting a PLI, in seconds (0.25 ≈ a couple of RTTs).
	resendInterval float64

	awaiting bool
	lastSent float64
}

// NewPLITracker returns a tracker with a 250 ms resend interval.
func NewPLITracker() *PLITracker {
	return &PLITracker{resendInterval: 0.25}
}

// Request records that the stream is undecodable at time now (seconds) and
// reports whether a PLI should be emitted: true for the first request of an
// outage and for each resendInterval that elapses while recovery is still
// pending, false while a refresh is already in flight.
func (t *PLITracker) Request(now float64) bool {
	if t.awaiting && now-t.lastSent < t.resendInterval {
		return false
	}
	t.awaiting = true
	t.lastSent = now
	return true
}

// OnKeyFrame records that a key frame arrived: the refresh completed and
// the next decode failure starts a new PLI cycle.
func (t *PLITracker) OnKeyFrame() { t.awaiting = false }
