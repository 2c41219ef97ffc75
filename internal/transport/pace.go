package transport

import "time"

// PaceCredit is how far the pacer's schedule may lag the clock: after an
// idle gap a frame of up to PaceCredit × 2·rate leaves in one batch, and a
// late timer or a scheduling stall longer than that is not turned into a
// bigger burst. It is time, not bytes or packets, so the burst is bounded
// in time at any rate: a bottleneck running at the REMB rate drains it in
// 2·PaceCredit. 16 ms is the smallest of 8, 16, 24 and 33 ms that sends a
// 2 Mbps call's frames whole; the sweep is in CHANGES.md.
const PaceCredit = 16 * time.Millisecond

// PaceDue is the pacer's schedule step. next is the send time of wires[0],
// now the clock; it returns how many packets are due — the head packets
// whose send times have come, all sent as one batch — and the send time of
// the packet after them. Packets are spaced at their serialisation time at
// twice the media rate, so feedback and overhead fit, and the schedule is
// first pulled up to within PaceCredit of now. It is pure: the live
// session's pacer runs it on the wall clock, the replay harness on virtual
// time.
func PaceDue(next, now time.Time, rate float64, wires [][]byte) (n int, after time.Time) {
	if rate < 1e5 {
		rate = 1e5
	}
	if earliest := now.Add(-PaceCredit); next.Before(earliest) {
		next = earliest
	}
	for n < len(wires) && !next.After(now) {
		next = next.Add(time.Duration(float64(len(wires[n])) * 8 / (2 * rate) * float64(time.Second)))
		n++
	}
	return n, next
}
