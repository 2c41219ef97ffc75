package frametrace

import (
	"time"

	"livo/internal/ring"
)

// EventKind classifies one structured data-plane event.
type EventKind uint8

const (
	EvFrameDrop     EventKind = iota // subscriber queue dropped a frame; Val is a DropReason
	EvPLI                            // PLI forwarded to the sender
	EvLivenessEvict                  // subscriber evicted for silence; Val is silence ns
	EvRetxHit                        // NACK served from the retransmission cache
	EvRetxMiss                       // NACK escalated to the sender
	EvREMB                           // forwarded REMB minimum changed; Val is bps
	EvRungSwitch                     // subscriber rung switch committed; Val is RungSwitchVal
	NumEventKinds   int       = iota
)

var eventNames = [NumEventKinds]string{
	"frame_drop", "pli", "liveness_evict", "retx_hit", "retx_miss", "remb",
	"rung_switch",
}

func (k EventKind) String() string {
	if int(k) < NumEventKinds {
		return eventNames[k]
	}
	return "event?"
}

// DropReason says why a subscriber queue dropped a frame; carried in
// EvFrameDrop's Val field.
type DropReason int64

const (
	DropReject DropReason = iota // ring full, nothing evictable
	DropDelta                    // delta frame evicted to admit a newer frame
	DropKey                      // key frame evicted to admit a newer key frame
)

func (r DropReason) String() string {
	switch r {
	case DropReject:
		return "reject"
	case DropDelta:
		return "evict_delta"
	case DropKey:
		return "evict_key"
	}
	return "drop?"
}

// RungSwitchVal packs a rung switch's context into an event Val: the old
// and new rung ids plus the REMB estimate (bps) that triggered the
// reassignment.
func RungSwitchVal(oldRung, newRung uint8, rembBps int64) int64 {
	return rembBps<<16 | int64(oldRung)<<8 | int64(newRung)
}

// UnpackRungSwitch is the inverse of RungSwitchVal.
func UnpackRungSwitch(v int64) (oldRung, newRung uint8, rembBps int64) {
	return uint8(v >> 8), uint8(v), v >> 16
}

// Event is one recorded data-plane event.
type Event struct {
	Kind   EventKind
	Stream uint8
	Seq    uint32 // frame or packet sequence the event concerns; 0 if none
	Sub    int32  // subscriber id; -1 if not tied to one subscriber
	Val    int64  // kind-specific value (drop reason, bps, ns)
	TimeNs int64
}

// EventRing is a fixed-capacity lock-free ring of recent data-plane
// events (storage: internal/ring). A nil *EventRing ignores all events.
type EventRing struct{ ring *ring.Ring }

// NewEventRing creates a ring with at least capacity entries (rounded up
// to a power of two; minimum 64).
func NewEventRing(capacity int) *EventRing {
	return &EventRing{ring: ring.New(capacity)}
}

// Cap returns the ring capacity; 0 for a nil ring.
func (r *EventRing) Cap() int {
	if r == nil {
		return 0
	}
	return r.ring.Cap()
}

// Recorded returns how many events have ever been recorded.
func (r *EventRing) Recorded() uint64 {
	if r == nil {
		return 0
	}
	return r.ring.Recorded()
}

// Dropped returns how many of those were abandoned because a writer a
// full lap away owned their slot (see internal/ring); 0 for a nil ring.
func (r *EventRing) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.ring.Dropped()
}

// Add records one event at time.Now(). Safe for concurrent use; free of
// allocations; a no-op on nil.
func (r *EventRing) Add(kind EventKind, stream uint8, seq uint32, sub int32, val int64) {
	if r == nil {
		return
	}
	r.ring.Put(uint64(seq)<<32|uint64(kind)<<8|uint64(stream), uint64(int64(sub)), uint64(val),
		uint64(time.Now().UnixNano()))
}

// Recent returns up to n of the most recent events, oldest first.
func (r *EventRing) Recent(n int) []Event {
	if r == nil {
		return nil
	}
	var out []Event
	r.ring.Recent(n, func(w [ring.Words]uint64) {
		out = append(out, Event{
			Kind:   EventKind(w[0] >> 8 & 0xff),
			Stream: uint8(w[0] & 0xff),
			Seq:    uint32(w[0] >> 32),
			Sub:    int32(w[1]),
			Val:    int64(w[2]),
			TimeNs: int64(w[3]),
		})
	})
	return out
}
