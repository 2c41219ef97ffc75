package livo

import (
	"net"
	"testing"
	"time"

	"livo/internal/relaycore"
	"livo/internal/telemetry"
	"livo/internal/transport"
	"livo/internal/udpio"
)

// mkMediaDatagram builds a valid MediaMagic-prefixed wire fragment like
// the session send path emits.
func mkMediaDatagram(stream uint8, seq uint32, frag, count uint16, key bool, payload int) []byte {
	p := transport.Packet{
		Stream:    stream,
		FrameSeq:  seq,
		FragIndex: frag,
		FragCount: count,
		Key:       key,
		Payload:   make([]byte, payload),
	}
	return append([]byte{transport.MediaMagic}, p.Marshal()...)
}

// TestRelayUDPBatchWirePath runs the relay over a real udpio socket group:
// recvmmsg batch ingest straight into shard pools, sendmmsg fan-out, and
// reuseport flow steering — media reaches every subscriber, feedback rides
// back to the sender, and teardown unblocks the blocking batch reads.
func TestRelayUDPBatchWirePath(t *testing.T) {
	socks, err := udpio.ListenGroup("udp", "127.0.0.1:0", 2, udpio.Config{})
	if err != nil {
		t.Fatalf("ListenGroup: %v", err)
	}
	conns := make([]net.PacketConn, len(socks))
	for i, s := range socks {
		conns[i] = s
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()

	senderConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer senderConn.Close()
	var subs []net.PacketConn
	for i := 0; i < 3; i++ {
		sc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		subs = append(subs, sc)
	}

	relay := NewRelayGroup(conns, senderConn.LocalAddr(), relaycore.Config{
		Shards:    2,
		Telemetry: telemetry.NewRegistry(),
	})
	for _, sc := range subs {
		relay.Subscribe(sc.LocalAddr())
	}
	go relay.Run()
	defer relay.Close()

	relayAddr := socks[0].LocalAddr()
	const frames, frags = 10, 4
	const total = frames * frags
	for f := 0; f < frames; f++ {
		for g := 0; g < frags; g++ {
			d := mkMediaDatagram(transport.StreamColor, uint32(f), uint16(g), frags, f == 0, 600)
			if _, err := senderConn.WriteTo(d, relayAddr); err != nil {
				t.Fatalf("sender WriteTo: %v", err)
			}
		}
		time.Sleep(time.Millisecond)
	}

	buf := make([]byte, 4096)
	for si, sc := range subs {
		_ = sc.SetReadDeadline(time.Now().Add(5 * time.Second))
		got := 0
		for got < total {
			n, _, err := sc.ReadFrom(buf)
			if err != nil {
				t.Fatalf("sub %d: %v after %d/%d packets", si, err, got, total)
			}
			if n > 0 && buf[0] == transport.MediaMagic {
				got++
			}
		}
	}

	// Reverse path: the primary's first REMB is always forwarded.
	if _, err := subs[0].WriteTo(transport.AppendREMB(nil, 2e6), relayAddr); err != nil {
		t.Fatal(err)
	}
	_ = senderConn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, _, err := senderConn.ReadFrom(buf)
	if err != nil {
		t.Fatalf("sender never saw forwarded REMB: %v", err)
	}
	if n == 0 || buf[0] != transport.FBREMB {
		t.Fatalf("sender got %d bytes type 0x%x, want REMB", n, buf[0])
	}

	ws := relay.WireStats()
	if ws.ReadPackets == 0 || ws.WritePackets == 0 {
		t.Fatalf("wire stats not accounted: %+v", ws)
	}
	if socks[0].Batched() && !ws.Batched {
		t.Fatalf("WireStats lost the batched flag: %+v", ws)
	}

	// Fan-out amortization: with 64 subscribers behind it a relay under a
	// burst drains whole writer-ring batches, so where the kernel batches it
	// must spend at most one write syscall per 16 packets (it sits near
	// 1/32). Nobody reads the extra subscribers' sockets — the kernel drops
	// what overflows them, after the write was counted.
	for len(subs) < 64 {
		sc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		subs = append(subs, sc)
		relay.Subscribe(sc.LocalAddr())
	}
	before := relay.WireStats()
	const burstFrames, burstFrags = 48, 16
	for f := 0; f < burstFrames; f++ {
		for g := 0; g < burstFrags; g++ {
			d := mkMediaDatagram(transport.StreamColor, uint32(100+f), uint16(g), burstFrags, false, 1000)
			if _, err := senderConn.WriteTo(d, relayAddr); err != nil {
				t.Fatalf("sender WriteTo: %v", err)
			}
		}
	}
	// Drained = every queue empty with the fan-out count unchanged since
	// the previous look.
	deadline, last := time.Now().Add(10*time.Second), int64(-1)
	for {
		st := relay.Stats()
		var depth int64
		for _, ss := range st.Subs {
			depth += ss.Depth
		}
		if depth == 0 && st.FanoutPackets == last && st.FanoutPackets > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("burst did not drain: depth %d", depth)
		}
		last = st.FanoutPackets
		time.Sleep(20 * time.Millisecond)
	}
	after := relay.WireStats()
	pkts, sys := after.WritePackets-before.WritePackets, after.WriteSyscalls-before.WriteSyscalls
	if pkts < 64*burstFrags {
		t.Fatalf("burst wrote only %d packets to 64 subscribers", pkts)
	}
	if socks[0].Batched() && sys*16 > pkts {
		t.Fatalf("batched fan-out spent %d write syscalls on %d packets (%.3f/pkt), budget 1/16",
			sys, pkts, float64(sys)/float64(pkts))
	}
	t.Logf("64-subscriber burst: %d write syscalls for %d packets (%.3f/pkt, batched=%v)",
		sys, pkts, float64(sys)/float64(pkts), socks[0].Batched())

	// Close must unblock the blocking batch reads without a fatal error.
	if err := relay.Close(); err != nil {
		t.Fatal(err)
	}
	if err := relay.Err(); err != nil {
		t.Fatalf("relay recorded a fatal error on clean teardown: %v", err)
	}
}
