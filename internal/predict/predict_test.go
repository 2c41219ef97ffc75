package predict

import (
	"math"
	"math/rand"
	"testing"

	"livo/internal/geom"
	"livo/internal/trace"
)

func TestKalmanConstantVelocity(t *testing.T) {
	// A viewer moving at constant velocity must be predicted near-exactly.
	k := NewKalman()
	vel := geom.V3(0.5, 0, -0.3)
	for i := 0; i <= 60; i++ {
		tm := float64(i) / 30
		pose := geom.Pose{Position: vel.Scale(tm), Rotation: geom.QuatIdentity}
		k.Observe(tm, pose)
	}
	horizon := 0.2
	pred := k.Predict(horizon)
	want := vel.Scale(2.0 + horizon)
	if pred.Position.Dist(want) > 0.02 {
		t.Errorf("CV prediction %v, want %v", pred.Position, want)
	}
}

func TestKalmanConstantAngularVelocity(t *testing.T) {
	k := NewKalman()
	rate := 0.8 // rad/s yaw
	for i := 0; i <= 90; i++ {
		tm := float64(i) / 30
		pose := geom.Pose{Rotation: geom.QuatFromEuler(rate*tm, 0, 0)}
		k.Observe(tm, pose)
	}
	pred := k.Predict(0.15)
	want := geom.QuatFromEuler(rate*(3.0+0.15), 0, 0)
	if ang := pred.Rotation.AngleTo(want); ang > 0.05 {
		t.Errorf("angular prediction off by %v rad", ang)
	}
}

func TestKalmanYawWrapAround(t *testing.T) {
	// Rotating through ±π must not confuse the filter.
	k := NewKalman()
	rate := 1.0
	for i := 0; i <= 300; i++ {
		tm := float64(i) / 30
		k.Observe(tm, geom.Pose{Rotation: geom.QuatFromEuler(rate*tm, 0, 0)})
	}
	pred := k.Predict(0.1)
	want := geom.QuatFromEuler(rate*10.1, 0, 0)
	if ang := pred.Rotation.AngleTo(want); ang > 0.1 {
		t.Errorf("wraparound prediction off by %v rad", ang)
	}
}

func TestKalmanBeforeObservation(t *testing.T) {
	k := NewKalman()
	if k.Predict(0.1) != geom.PoseIdentity {
		t.Error("unobserved predictor should return identity")
	}
	p := geom.Pose{Position: geom.V3(1, 2, 3), Rotation: geom.QuatIdentity}
	k.Observe(0, p)
	// Single observation: prediction equals the observation.
	if k.Predict(0.5).Position.Dist(p.Position) > 1e-6 {
		t.Error("single-observation prediction should equal observation")
	}
}

func TestKalmanOnHumanTrace(t *testing.T) {
	// On a synthetic human trace at a conferencing horizon (~150 ms) the
	// Kalman position error should be small — Fig 16 reports 0.04 m.
	u := trace.SynthUserTrace("k", 11, 30, 30)
	k := NewKalman()
	horizon := 0.15
	hSamples := int(horizon * 30)
	var posErr, rotErr []float64
	for i, s := range u.Samples {
		k.Observe(s.T, s.Pose)
		j := i + hSamples
		if i < 30 || j >= len(u.Samples) {
			continue
		}
		pred := k.Predict(horizon)
		truth := u.Samples[j].Pose
		posErr = append(posErr, pred.Position.Dist(truth.Position))
		rotErr = append(rotErr, pred.Rotation.AngleTo(truth.Rotation)*180/math.Pi)
	}
	meanPos := mean(posErr)
	meanRot := mean(rotErr)
	if meanPos > 0.15 {
		t.Errorf("mean position error %v m too high", meanPos)
	}
	if meanRot > 25 {
		t.Errorf("mean rotation error %v deg too high", meanRot)
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestMLPConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewMLP([]int{4}, rng); err == nil {
		t.Error("single layer accepted")
	}
	if _, err := NewMLP([]int{4, 0, 2}, rng); err == nil {
		t.Error("zero-size layer accepted")
	}
	m, err := NewMLP([]int{2, 8, 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	out := m.Forward([]float64{0.5, -0.5})
	if len(out) != 1 {
		t.Fatalf("output size %d", len(out))
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, _ := NewMLP([]int{2, 8, 1}, rng)
	inputs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	targets := [][]float64{{0}, {1}, {1}, {0}}
	mse, err := m.Train(inputs, targets, 3000, 0.1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if mse > 0.02 {
		t.Errorf("XOR MSE after training = %v", mse)
	}
	for i, x := range inputs {
		got := m.Forward(x)[0]
		if math.Abs(got-targets[i][0]) > 0.25 {
			t.Errorf("XOR(%v) = %v, want %v", x, got, targets[i][0])
		}
	}
}

func TestMLPTrainErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, _ := NewMLP([]int{2, 4, 1}, rng)
	if _, err := m.Train(nil, nil, 1, 0.1, rng); err == nil {
		t.Error("empty training set accepted")
	}
	if _, err := m.Train([][]float64{{1, 2}}, nil, 1, 0.1, rng); err == nil {
		t.Error("mismatched lengths accepted")
	}
}

func TestMLPPredictorLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p, err := NewMLPPredictor([]int{16}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if p.Predict(0.1) != geom.PoseIdentity {
		t.Error("empty history should predict identity")
	}
	pose := geom.Pose{Position: geom.V3(1, 1, 1), Rotation: geom.QuatIdentity}
	p.Observe(0, pose)
	// With short history, falls back to last pose.
	if p.Predict(0.1).Position.Dist(pose.Position) > 1e-9 {
		t.Error("short-history fallback wrong")
	}
}

func TestMLPBiggerHiddenLayerLearnsBetter(t *testing.T) {
	// The qualitative result of Fig 16: a 3-unit MLP cannot model head
	// motion; larger hidden layers approach (but don't beat on position)
	// the Kalman filter.
	train := [][]geom.Pose{}
	for seed := int64(20); seed < 23; seed++ {
		u := trace.SynthUserTrace("t", seed, 20, 30)
		var poses []geom.Pose
		for _, s := range u.Samples {
			poses = append(poses, s.Pose)
		}
		train = append(train, poses)
	}
	test := trace.SynthUserTrace("t", 99, 20, 30)
	horizon := 5 // samples (~167 ms)

	evalNet := func(hidden []int) float64 {
		rng := rand.New(rand.NewSource(5))
		p, err := NewMLPPredictor(hidden, rng)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.TrainOnTraces(train, horizon, 30, 0.01, rng); err != nil {
			t.Fatal(err)
		}
		var errs []float64
		for i, s := range test.Samples {
			p.Observe(s.T, s.Pose)
			j := i + horizon
			if i < historyLen || j >= len(test.Samples) {
				continue
			}
			errs = append(errs, p.Predict(0).Position.Dist(test.Samples[j].Pose.Position))
		}
		return mean(errs)
	}
	small := evalNet([]int{3, 3, 3})
	large := evalNet([]int{64, 64, 64})
	if large >= small {
		t.Errorf("64-unit MLP (%v m) not better than 3-unit (%v m)", large, small)
	}
}
