package trace

import (
	"bytes"
	"math"
	"testing"

	"livo/internal/geom"
)

func TestTrace1MatchesTable4(t *testing.T) {
	b := Trace1()
	s := b.Stats()
	// Table 4: mean 216.90, max 262.19, min 151.91.
	if math.Abs(s.Mean-216.90) > 217*0.03 {
		t.Errorf("trace-1 mean = %v, want ~216.90", s.Mean)
	}
	if math.Abs(s.Max-262.19) > 1 {
		t.Errorf("trace-1 max = %v, want 262.19", s.Max)
	}
	if math.Abs(s.Min-151.91) > 1 {
		t.Errorf("trace-1 min = %v, want 151.91", s.Min)
	}
	// Percentiles in plausible order.
	if !(s.Min <= s.P10 && s.P10 <= s.Mean && s.Mean <= s.P90 && s.P90 <= s.Max) {
		t.Errorf("trace-1 stats out of order: %+v", s)
	}
}

func TestTrace2MatchesTable4(t *testing.T) {
	s := Trace2().Stats()
	if math.Abs(s.Mean-89.20) > 89.2*0.04 {
		t.Errorf("trace-2 mean = %v, want ~89.20", s.Mean)
	}
	if math.Abs(s.Max-106.37) > 1 {
		t.Errorf("trace-2 max = %v", s.Max)
	}
	if math.Abs(s.Min-36.35) > 1 {
		t.Errorf("trace-2 min = %v", s.Min)
	}
}

func TestTrace2MoreVariable(t *testing.T) {
	// Fig A.3: the mobile trace is relatively more variable than the
	// stationary one (coefficient of variation).
	s1, s2 := Trace1(), Trace2()
	cv := func(b *Bandwidth) float64 {
		st := b.Stats()
		var sum float64
		for _, v := range b.Mbps {
			d := v - st.Mean
			sum += d * d
		}
		return math.Sqrt(sum/float64(len(b.Mbps))) / st.Mean
	}
	if cv(s2) <= cv(s1) {
		t.Errorf("trace-2 CV %v not greater than trace-1 CV %v", cv(s2), cv(s1))
	}
}

func TestBandwidthAtWraps(t *testing.T) {
	b := &Bandwidth{Interval: 1, Mbps: []float64{10, 20, 30}}
	if b.At(0) != 10 || b.At(1.5) != 20 || b.At(2.9) != 30 {
		t.Error("At lookup wrong")
	}
	if b.At(3.0) != 10 { // wraps
		t.Errorf("At(3.0) = %v, want wrap to 10", b.At(3.0))
	}
	if b.Duration() != 3 {
		t.Errorf("Duration = %v", b.Duration())
	}
	empty := &Bandwidth{Interval: 1}
	if empty.At(5) != 0 {
		t.Error("empty trace At != 0")
	}
}

func TestBandwidthScale(t *testing.T) {
	b := &Bandwidth{Name: "x", Interval: 1, Mbps: []float64{1, 2}}
	s := b.Scale(10)
	if s.Mbps[0] != 10 || s.Mbps[1] != 20 {
		t.Error("scale wrong")
	}
	if b.Mbps[0] != 1 {
		t.Error("scale mutated original")
	}
}

// TestBandwidthWriteToBytes pins WriteTo's output byte for byte: a
// "# name interval=s" header, then one Mbps sample per line to four
// decimals. The count it returns is the bytes written.
func TestBandwidthWriteToBytes(t *testing.T) {
	b := &Bandwidth{Name: "t", Interval: 0.5, Mbps: []float64{1, 2.25, 12.34567}}
	var buf bytes.Buffer
	n, err := b.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := "# t interval=0.5\n1.0000\n2.2500\n12.3457\n"
	if got := buf.String(); got != want {
		t.Errorf("WriteTo wrote %q, want %q", got, want)
	}
	if n != int64(len(want)) {
		t.Errorf("WriteTo returned %d, wrote %d bytes", n, len(want))
	}
}

func TestTracesMap(t *testing.T) {
	m := Traces()
	if m["trace-1"] == nil || m["trace-2"] == nil {
		t.Fatal("missing traces")
	}
}

func TestUserTraceBasics(t *testing.T) {
	u := SynthUserTrace("u", 1, 10, 30)
	if got := u.Duration(); math.Abs(got-10) > 0.2 {
		t.Errorf("duration = %v", got)
	}
	if len(u.Samples) != 300 {
		t.Errorf("samples = %d", len(u.Samples))
	}
	// Interpolation matches samples at sample times.
	p := u.At(u.Samples[50].T)
	if !p.Position.AlmostEqual(u.Samples[50].Pose.Position, 1e-9) {
		t.Error("At not matching sample")
	}
}

func TestUserTraceHumanLike(t *testing.T) {
	u := SynthUserTrace("u", 7, 60, 30)
	dt := 1.0 / 30
	var maxSpeed, maxAngVel float64
	for i := 1; i < len(u.Samples); i++ {
		d := u.Samples[i].Pose.Position.Dist(u.Samples[i-1].Pose.Position)
		maxSpeed = math.Max(maxSpeed, d/dt)
		ang := u.Samples[i-1].Pose.Rotation.AngleTo(u.Samples[i].Pose.Rotation)
		maxAngVel = math.Max(maxAngVel, ang/dt)
	}
	if maxSpeed > 2.0 {
		t.Errorf("max walking speed %v m/s implausible", maxSpeed)
	}
	if maxAngVel > 2*math.Pi*4 {
		t.Errorf("max head angular velocity %v rad/s implausible", maxAngVel)
	}
	// Stays in a sane volume around the scene.
	for _, s := range u.Samples {
		p := s.Pose.Position
		if math.Hypot(p.X, p.Z) > 5 || p.Y < 0.5 || p.Y > 3 {
			t.Fatalf("user left the room: %v", p)
		}
	}
}

func TestUserTraceLooksAtScene(t *testing.T) {
	// Most of the time the viewer should face the scene center region.
	u := SynthUserTrace("u", 3, 30, 30)
	facing := 0
	for _, s := range u.Samples {
		toCenter := geom.V3(0, 0.9, 0).Sub(s.Pose.Position).Normalize()
		if s.Pose.Forward().Dot(toCenter) > 0.5 {
			facing++
		}
	}
	if ratio := float64(facing) / float64(len(u.Samples)); ratio < 0.6 {
		t.Errorf("viewer faces scene only %.0f%% of the time", 100*ratio)
	}
}

func TestUserTracesPerVideo(t *testing.T) {
	traces := UserTraces("band2", 20)
	if len(traces) != 3 {
		t.Fatalf("got %d traces", len(traces))
	}
	// Different users move differently.
	a, b := traces[0], traces[1]
	same := true
	for i := 0; i < len(a.Samples) && i < len(b.Samples); i += 30 {
		if !a.Samples[i].Pose.Position.AlmostEqual(b.Samples[i].Pose.Position, 1e-9) {
			same = false
			break
		}
	}
	if same {
		t.Error("all users identical")
	}
	// Deterministic per video name.
	again := UserTraces("band2", 20)
	if !again[0].Samples[100].Pose.Position.AlmostEqual(traces[0].Samples[100].Pose.Position, 1e-12) {
		t.Error("user traces not deterministic")
	}
}

func TestUserTraceWrapAndEmpty(t *testing.T) {
	u := SynthUserTrace("u", 5, 5, 30)
	// Past the end wraps around.
	p := u.At(u.Duration() + 1)
	if !p.Position.IsFinite() {
		t.Error("wrapped pose not finite")
	}
	empty := &UserTrace{Rate: 30}
	if empty.At(0) != geom.PoseIdentity {
		t.Error("empty trace should return identity")
	}
	if empty.Duration() != 0 {
		t.Error("empty duration != 0")
	}
}
