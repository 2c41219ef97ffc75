package netem

import (
	"math"
	"math/rand"
	"testing"

	"livo/internal/trace"
)

func TestFixedLinkSerialization(t *testing.T) {
	l := NewFixedLink(8) // 8 Mbps = 1 MB/s
	l.PropDelay = 0.05
	arrival, dropped := l.Send(0, 100_000) // 0.1 s serialization
	if dropped {
		t.Fatal("unexpected drop")
	}
	if math.Abs(arrival-(0.1+0.05)) > 1e-9 {
		t.Errorf("arrival = %v, want 0.15", arrival)
	}
}

func TestLinkQueueing(t *testing.T) {
	l := NewFixedLink(8)
	l.PropDelay = 0
	a1, _ := l.Send(0, 100_000)
	a2, _ := l.Send(0, 100_000) // queues behind the first
	if math.Abs(a1-0.1) > 1e-9 || math.Abs(a2-0.2) > 1e-9 {
		t.Errorf("arrivals = %v, %v", a1, a2)
	}
	if d := l.QueueDelay(0.05); math.Abs(d-0.15) > 1e-9 {
		t.Errorf("queue delay = %v", d)
	}
	// After the backlog drains, no queueing.
	a3, _ := l.Send(1.0, 1000)
	if math.Abs(a3-1.001) > 1e-9 {
		t.Errorf("post-drain arrival = %v", a3)
	}
}

func TestLinkDroptail(t *testing.T) {
	l := NewFixedLink(8)
	l.QueueBytes = 150_000
	var drops int
	for i := 0; i < 10; i++ {
		if _, dropped := l.Send(0, 50_000); dropped {
			drops++
		}
	}
	if drops == 0 {
		t.Error("queue never overflowed")
	}
}

func TestLinkRandomLoss(t *testing.T) {
	l := NewFixedLink(1000)
	l.LossRate = 0.3
	l.Rng = rand.New(rand.NewSource(1))
	var drops int
	for i := 0; i < 1000; i++ {
		if _, dropped := l.Send(float64(i), 100); dropped {
			drops++
		}
	}
	if drops < 200 || drops > 400 {
		t.Errorf("drops = %d of 1000 at 30%% loss", drops)
	}
}

func TestLinkTraceDriven(t *testing.T) {
	// Capacity 8 Mbps in second 0, 80 Mbps in second 1.
	tr := &trace.Bandwidth{Interval: 1, Mbps: []float64{8, 80}}
	l := NewLink(tr)
	l.PropDelay = 0
	// 1.5 MB: 1 MB in second 0 (1 MB/s), remaining 0.5 MB at 10 MB/s
	// takes 0.05 s.
	arrival, dropped := l.Send(0, 1_500_000)
	if dropped {
		t.Fatal("dropped")
	}
	if math.Abs(arrival-1.05) > 1e-9 {
		t.Errorf("arrival = %v, want 1.05", arrival)
	}
}

func TestLinkOutage(t *testing.T) {
	tr := &trace.Bandwidth{Interval: 1, Mbps: []float64{0, 8}}
	l := NewLink(tr)
	l.PropDelay = 0
	l.QueueBytes = 10 << 20
	// Sent during the outage: serialization starts at t=1.
	arrival, dropped := l.Send(0.5, 100_000)
	if dropped {
		t.Fatal("dropped")
	}
	if math.Abs(arrival-1.1) > 1e-9 {
		t.Errorf("arrival = %v, want 1.1", arrival)
	}
}

func TestLinkZeroBytes(t *testing.T) {
	l := NewFixedLink(8)
	arrival, dropped := l.Send(1, 0)
	if dropped || math.Abs(arrival-1.02) > 1e-9 {
		t.Errorf("zero-byte send = %v %v", arrival, dropped)
	}
}

func TestLinkWrapsTrace(t *testing.T) {
	tr := &trace.Bandwidth{Interval: 1, Mbps: []float64{8}}
	l := NewLink(tr)
	l.PropDelay = 0
	arrival, _ := l.Send(100.25, 500_000) // wraps, still 1 MB/s
	if math.Abs(arrival-100.75) > 1e-9 {
		t.Errorf("arrival = %v", arrival)
	}
}
