package main

import (
	"encoding/json"
	"math"
	"net"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"livo"
	"livo/internal/relaycore"
	"livo/internal/transport"
	"livo/internal/udpio"
)

// The tap and the shaper must offer what the program probes a conn for.
var (
	_ udpio.BatchReader     = (*tap)(nil)
	_ relaycore.BatchWriter = (*tap)(nil)
	_ udpio.BatchReader     = (*shaper)(nil)
	_ relaycore.BatchWriter = (*shaper)(nil)
)

// media builds the wire form of one fragment.
func media(stream uint8, seq uint32, frag, count uint16) []byte {
	p := transport.Packet{Stream: stream, FrameSeq: seq, FragIndex: frag, FragCount: count, Payload: make([]byte, 100)}
	return append([]byte{transport.MediaMagic}, p.Marshal()...)
}

func TestTapKeepsRelayOnBatchedPath(t *testing.T) {
	relaySock, err := listen()
	if err != nil {
		t.Fatal(err)
	}
	defer relaySock.Close()
	sender, err := listen()
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	sub, err := listen()
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	tp := newTap(relaySock, sub.LocalAddr())
	relay := livo.NewRelayGroup([]net.PacketConn{tp}, sender.LocalAddr(), relaycore.Config{})
	relay.Subscribe(sub.LocalAddr())
	go relay.Run()
	defer relay.Close()

	// One frame: two color fragments and one depth fragment.
	for _, w := range [][]byte{
		media(transport.StreamColor, 7, 0, 2), media(transport.StreamColor, 7, 1, 2), media(transport.StreamDepth, 7, 0, 1),
	} {
		if _, err := sender.WriteTo(w, relaySock.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 2048)
	_ = sub.SetReadDeadline(time.Now().Add(2 * time.Second))
	for i := 0; i < 3; i++ {
		if _, _, err := sub.ReadFrom(buf); err != nil {
			t.Fatalf("subscriber read %d: %v", i, err)
		}
	}

	ws := relay.WireStats()
	if !ws.Batched && udpio.DefaultBatch > 1 && relaySock.Batched() {
		t.Error("relay behind a tap reports an unbatched wire path")
	}
	if ws.ReadPackets < 3 || ws.WritePackets < 3 {
		t.Errorf("relay wire stats through the tap: read %d wrote %d, want >= 3 each", ws.ReadPackets, ws.WritePackets)
	}
	k := frameKey{seq: 7}
	if _, ok := tp.in.doneAt(k); !ok {
		t.Error("tap did not see frame 7 complete on ingress")
	}
	if _, ok := tp.egress(sub.LocalAddr()).doneAt(k); !ok {
		t.Error("tap did not see frame 7 complete on egress to the watched subscriber")
	}
}

func TestFrameLogCompletion(t *testing.T) {
	l := newFrameLog()
	t0 := time.Unix(100, 0)
	k := frameKey{seq: 3}
	l.observe(media(transport.StreamColor, 3, 0, 2), t0)
	l.observe(media(transport.StreamDepth, 3, 0, 1), t0.Add(time.Millisecond))
	if _, ok := l.doneAt(k); ok {
		t.Fatal("frame done with a color fragment missing")
	}
	l.observe(media(transport.StreamColor, 3, 0, 2), t0.Add(2*time.Millisecond)) // duplicate
	if _, ok := l.doneAt(k); ok {
		t.Fatal("a duplicate completed the frame")
	}
	l.observe(media(transport.StreamColor, 3, 1, 2), t0.Add(3*time.Millisecond)) // the repair
	at, ok := l.doneAt(k)
	if !ok || !at.Equal(t0.Add(3*time.Millisecond)) {
		t.Fatalf("done at %v, %v; want the repair's arrival", at, ok)
	}
	l.observe(media(transport.StreamColor, 3, 1, 2), t0.Add(9*time.Millisecond)) // late duplicate moves nothing
	if at2, _ := l.doneAt(k); !at2.Equal(at) {
		t.Fatal("a late duplicate moved the completion stamp")
	}
	l.observe(transport.MarshalNACK(transport.StreamColor, 3, 1), t0)
	if !l.nacked[3] {
		t.Fatal("NACK for frame 3 not recorded")
	}
}

// discard is a batchConn that swallows writes.
type discard struct{}

func (*discard) WriteTo(p []byte, _ net.Addr) (int, error)       { return len(p), nil }
func (*discard) WriteBatch(ps [][]byte, _ net.Addr) (int, error) { return len(ps), nil }
func (*discard) ReadFrom([]byte) (int, net.Addr, error)          { return 0, nil, os.ErrDeadlineExceeded }
func (*discard) ReadBatch([]udpio.Message) (int, error)          { return 0, os.ErrDeadlineExceeded }
func (*discard) Stats() udpio.SocketStats                        { return udpio.SocketStats{} }
func (*discard) Close() error                                    { return nil }
func (*discard) LocalAddr() net.Addr                             { return &net.UDPAddr{} }
func (*discard) SetDeadline(time.Time) error                     { return nil }
func (*discard) SetReadDeadline(time.Time) error                 { return nil }
func (*discard) SetWriteDeadline(time.Time) error                { return nil }

func TestShaperDropRate(t *testing.T) {
	s := newShaper(&discard{}, 1, 2, 0)
	defer s.Close()
	wire := media(transport.StreamColor, 1, 0, 1)
	fb := transport.AppendREMB(nil, 1e6)
	for i := 0; i < 50000; i++ {
		if _, err := s.WriteTo(wire, nil); err != nil {
			t.Fatal(err)
		}
		_, _ = s.WriteTo(fb, nil) // feedback is never dropped and never advances the schedule
	}
	if got := 100 * s.dropRate(); math.Abs(got-2) > 0.3 {
		t.Errorf("drop rate %.2f%% over 50k media packets, want 2%% ± 0.3", got)
	}
	if s.loss.Sent() != 50000 {
		t.Errorf("loss schedule saw %d packets, want the 50000 media packets only", s.loss.Sent())
	}
}

func TestShaperDelays(t *testing.T) {
	a, err := listen()
	if err != nil {
		t.Fatal(err)
	}
	b, err := listen()
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	s := newShaper(a, 1, 0, 20*time.Millisecond)
	defer s.Close()
	start := time.Now()
	if _, err := s.WriteTo([]byte("x"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	_ = b.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := b.ReadFrom(make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("packet arrived after %v, want at least the 20 ms delay", d)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {95, 4.8}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of nothing should be 0")
	}
}

func TestTypicalTailPassesOverStalledSeconds(t *testing.T) {
	const per = 10
	lat := make([][]float64, 100)
	for i := range lat {
		v := 100 + float64(i%per)
		if i >= 40 && i < 70 { // three seconds in which every frame is late
			v += 500
		}
		lat[i] = []float64{v, v} // two receivers
	}
	quiet := percentile([]float64{100, 100, 101, 101, 102, 102, 103, 103, 104, 104, 105, 105, 106, 106, 107, 107, 108, 108, 109, 109}, 95)
	if got := typicalTail(lat, per, 95); got != quiet {
		t.Errorf("typical p95 = %v, want a quiet second's %v", got, quiet)
	}
	for i := range lat {
		for j := range lat[i] {
			lat[i][j] += 30
		}
	}
	if got := typicalTail(lat, per, 95); got != quiet+30 {
		t.Errorf("typical p95 = %v after every frame got slower, want %v", got, quiet+30)
	}
	if got := typicalTail([][]float64{nil, nil, {7}, nil, nil}, 2, 95); got != 7 {
		t.Errorf("typical p95 = %v, want seconds that displayed nothing left out", got)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := quartileSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-9 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// quantiles([3.1, 2.9, 3.0, 3.3, 2.8, 3.05, 3.2], n=4) == [2.9, 3.05, 3.2]
	if got, want := quartileSpread([]float64{3.1, 2.9, 3.0, 3.3, 2.8, 3.05, 3.2}), 0.3/3.05; math.Abs(got-want) > 1e-9 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{10, 11}); math.Abs(got-1/10.5) > 1e-9 {
		t.Errorf("two-run spread = %v, want range over median", got)
	}
}

func TestPingPong(t *testing.T) {
	var got []int
	for i := 0; i < 10; i++ {
		got = append(got, pingPong(i, 4))
	}
	if want := []int{0, 1, 2, 3, 2, 1, 0, 1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("pingPong over 4 frames = %v, want %v", got, want)
	}
	if pingPong(5, 1) != 0 {
		t.Error("a one-frame clip has only frame 0")
	}
}

func TestSpeedProbe(t *testing.T) {
	var s speedProbe
	if s.speed() != 1 {
		t.Error("a probe that never ran should leave figures as measured")
	}
	s.ms = []float64{probeRefMs, 3 * probeRefMs}
	if got := s.speed(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("speed = %v, want 0.5 for probes that took twice the reference on average", got)
	}
	s = speedProbe{}
	s.every(2 * time.Millisecond)
	time.Sleep(50 * time.Millisecond)
	s.halt()
	var sum float64
	for _, v := range s.ms {
		sum += v
	}
	if len(s.ms) < 2 || sum <= 0 || math.Abs(sum-ms(s.cpu)) > 1e-6 {
		t.Errorf("%d probes took %v ms, %v in all: want several, and the total to be theirs", len(s.ms), sum, s.cpu)
	}
}

func TestViewerSeedEntersOneTrace(t *testing.T) {
	a, again, b := newViewer("office1", 3, 5), newViewer("office1", 3, 5), newViewer("office1", 4, 5)
	if a.offset != again.offset || a.offset == b.offset {
		t.Errorf("offsets %v, %v, %v: want the seed, and only the seed, to set it", a.offset, again.offset, b.offset)
	}
	for _, v := range []viewer{a, b} {
		if v.offset < 0 || v.offset >= viewerShift {
			t.Errorf("offset %v outside [0, %v)", v.offset, viewerShift)
		}
	}
	// Both walk the same recording: b is a, entered later or earlier.
	if got, want := a.At(1+b.offset-a.offset), b.At(1); got != want {
		t.Errorf("the two seeds see different users: %v and %v", got, want)
	}
}

// TestSpecMatchesBenchmarkJSON holds the checked-in BENCHMARK.json to the
// tables in spec.go (regenerate with `go run . -spec > ../BENCHMARK.json`)
// and the tables to the limits the pipeline sets.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk benchSpec
	if err := json.Unmarshal(b, &onDisk); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, spec()) {
		t.Error("BENCHMARK.json differs from spec(); regenerate it with -spec")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(m metricSpec) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %+v breaks the naming rules", m)
		}
		if seen[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range perLayer {
		check(m)
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d per-layer, %d end-to-end, %d workloads: outside the limits", len(perLayer), len(endToEnd), len(workloads))
	}
	for _, w := range workloads {
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why longer than 200", w.Name)
		}
		if _, live := liveSpecs[w.Name]; !live && w.Name != "replay_trace" {
			t.Errorf("workload %q is declared but not implemented", w.Name)
		}
	}
}
