package transport

import (
	"bytes"
	"math/rand"
	"testing"
)

func mkFrame(t *testing.T, rng *rand.Rand, size int) ([]byte, []Packet) {
	t.Helper()
	data := make([]byte, size)
	rng.Read(data)
	return data, Packetize(StreamColor, 9, false, 0, data)
}

func TestBuildParityShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	_, pkts := mkFrame(t, rng, 10*MTU) // 10 fragments -> 2 groups (8 + 2)
	parity := BuildParity(pkts)
	if len(parity) != 2 {
		t.Fatalf("got %d parity packets, want 2", len(parity))
	}
	if !parity[0].Parity || parity[0].FragIndex != 0 || parity[1].FragIndex != 8 {
		t.Fatalf("parity headers wrong: %+v %+v", parity[0], parity[1])
	}
	// Single-fragment frames get no parity (NACK suffices).
	_, one := mkFrame(t, rng, 100)
	if len(BuildParity(one)) != 0 {
		t.Error("parity over one fragment")
	}
}

func TestParityPacketWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	_, pkts := mkFrame(t, rng, 4*MTU)
	parity := BuildParity(pkts)[0]
	got, err := Unmarshal(parity.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Parity || !bytes.Equal(got.Payload, parity.Payload) {
		t.Fatal("parity flag or payload lost on the wire")
	}
}

func TestRecoverEachPosition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data, pkts := mkFrame(t, rng, 5*MTU+123) // 6 fragments, varied last length
	parity := BuildParity(pkts)
	if len(parity) != 1 {
		t.Fatalf("parity count = %d", len(parity))
	}
	for lost := 0; lost < len(pkts); lost++ {
		got := map[uint16][]byte{}
		for i, p := range pkts {
			if i != lost {
				got[p.FragIndex] = p.Payload
			}
		}
		idx, payload, err := RecoverWithParity(got, parity[0].Payload, 0)
		if err != nil {
			t.Fatalf("lost %d: %v", lost, err)
		}
		if int(idx) != lost {
			t.Fatalf("recovered index %d, want %d", idx, lost)
		}
		if !bytes.Equal(payload, pkts[lost].Payload) {
			t.Fatalf("lost %d: recovered payload differs", lost)
		}
	}
	_ = data
}

func TestRecoverErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	_, pkts := mkFrame(t, rng, 4*MTU)
	parity := BuildParity(pkts)[0]
	full := map[uint16][]byte{}
	for _, p := range pkts {
		full[p.FragIndex] = p.Payload
	}
	if _, _, err := RecoverWithParity(full, parity.Payload, 0); err == nil {
		t.Error("recovery with nothing missing succeeded")
	}
	two := map[uint16][]byte{}
	for i, p := range pkts {
		if i >= 2 {
			two[p.FragIndex] = p.Payload
		}
	}
	if _, _, err := RecoverWithParity(two, parity.Payload, 0); err == nil {
		t.Error("recovery with two missing succeeded")
	}
	if _, _, err := RecoverWithParity(full, nil, 0); err == nil {
		t.Error("empty parity accepted")
	}
	if _, _, err := RecoverWithParity(full, []byte{8, 1}, 0); err == nil {
		t.Error("truncated parity accepted")
	}
}

func TestJitterBufferFECRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data, pkts := mkFrame(t, rng, 6*MTU)
	parity := BuildParity(pkts)
	jb := NewJitterBuffer()
	// Deliver all but fragment 3, plus the parity packet.
	for i, p := range pkts {
		if i == 3 {
			continue
		}
		jb.Push(p, 1.0)
	}
	for _, p := range parity {
		jb.Push(p, 1.0)
	}
	out := jb.Pop(1.2)
	if len(out) != 1 {
		t.Fatalf("frame not delivered after FEC: %d", len(out))
	}
	if !bytes.Equal(out[0].Data, data) {
		t.Fatal("FEC-recovered frame corrupted")
	}
	if got := jb.Stats().FECRecovered; got != 1 {
		t.Errorf("FECRecovered = %d", got)
	}
	// No NACK should be pending: the loss was repaired locally.
	if n := jb.Nacks(1.5); len(n) != 0 {
		t.Errorf("NACKs after FEC recovery: %+v", n)
	}
}

func TestJitterBufferFECTwoLossesFallsBackToNACK(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	_, pkts := mkFrame(t, rng, 6*MTU)
	parity := BuildParity(pkts)
	jb := NewJitterBuffer()
	for i, p := range pkts {
		if i == 2 || i == 4 {
			continue
		}
		jb.Push(p, 1.0)
	}
	for _, p := range parity {
		jb.Push(p, 1.0)
	}
	if out := jb.Pop(1.2); len(out) != 0 {
		t.Fatal("frame delivered despite two losses")
	}
	nacks := jb.Nacks(1.1)
	if len(nacks) != 2 {
		t.Fatalf("NACKs = %+v", nacks)
	}
	// Retransmission of one loss lets FEC repair the other.
	jb.Push(pkts[2], 1.15)
	if out := jb.Pop(1.3); len(out) != 1 {
		t.Fatal("frame not delivered after NACK+FEC")
	}
}
