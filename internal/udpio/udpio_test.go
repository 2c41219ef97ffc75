package udpio

import (
	"bytes"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

func listenT(t *testing.T, cfg Config) *Socket {
	t.Helper()
	s, err := Listen("udp", "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func plainConn(t *testing.T) net.PacketConn {
	t.Helper()
	c, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenPacket: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// recvFunc returns a ConformConfig.Recv reading ordered datagrams off c.
func recvFunc(c net.PacketConn) func() ([]byte, error) {
	buf := make([]byte, 70000)
	return func() ([]byte, error) {
		_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, _, err := c.ReadFrom(buf)
		if err != nil {
			return nil, err
		}
		return append([]byte(nil), buf[:n]...), nil
	}
}

// The conformance suite must hold on a real loopback socket on both the
// kernel-batched path and the per-packet fallback (which is the only path
// on non-linux platforms — same test, no gating).
func TestConformLoopback(t *testing.T) {
	for _, tc := range []struct {
		name    string
		disable bool
	}{{"batched", false}, {"perpacket", true}} {
		t.Run(tc.name, func(t *testing.T) {
			s := listenT(t, Config{DisableBatch: tc.disable})
			sink := plainConn(t)
			err := ConformBatchWriter(s, sink.LocalAddr(), ConformConfig{
				Recv:        recvFunc(sink),
				MaxDatagram: 65507,
			})
			if err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.WritePackets == 0 || st.WriteSyscalls == 0 {
				t.Fatalf("stats not accounted: %+v", st)
			}
			if !tc.disable && batchSupported && st.WriteSyscalls >= st.WritePackets {
				t.Fatalf("batched path made %d syscalls for %d packets", st.WriteSyscalls, st.WritePackets)
			}
			// The per-packet plane is the A/B baseline: it must really be
			// one kernel visit per packet, or a batching figure measured
			// against it means nothing.
			if tc.disable && (st.Batched || st.WriteSyscalls*100 < st.WritePackets*99) {
				t.Fatalf("per-packet path amortized syscalls (batched=%v, %d syscalls for %d packets)",
					st.Batched, st.WriteSyscalls, st.WritePackets)
			}
		})
	}
}

func TestReadBatch(t *testing.T) {
	s := listenT(t, Config{batch: 8})
	peer := plainConn(t)

	const total = 20
	var want [][]byte
	for i := 0; i < total; i++ {
		p := bytes.Repeat([]byte{byte(i + 1)}, 50+i)
		want = append(want, p)
		if _, err := peer.WriteTo(p, s.LocalAddr()); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
	}
	time.Sleep(50 * time.Millisecond) // let loopback queue everything

	ms := make([]Message, 8)
	for i := range ms {
		ms[i].Buf = make([]byte, 2048)
	}
	var got [][]byte
	_ = s.SetReadDeadline(time.Now().Add(2 * time.Second))
	for len(got) < total {
		n, err := s.ReadBatch(ms)
		if err != nil {
			t.Fatalf("ReadBatch after %d pkts: %v", len(got), err)
		}
		for i := 0; i < n; i++ {
			if ms[i].N == 0 {
				continue
			}
			got = append(got, append([]byte(nil), ms[i].Buf[:ms[i].N]...))
			if a, b := ms[i].Addr.String(), peer.LocalAddr().String(); a != b {
				t.Fatalf("slot %d addr = %s, want %s", i, a, b)
			}
		}
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("packet %d: got %d bytes, want %d (or out of order)", i, len(got[i]), len(want[i]))
		}
	}
	st := s.Stats()
	if st.ReadPackets != total {
		t.Fatalf("ReadPackets = %d, want %d", st.ReadPackets, total)
	}
	if s.Batched() && st.ReadSyscalls >= total {
		t.Fatalf("batched reader made %d syscalls for %d packets", st.ReadSyscalls, total)
	}
}

func TestReadBatchDeadline(t *testing.T) {
	s := listenT(t, Config{})
	ms := []Message{{Buf: make([]byte, 2048)}}
	_ = s.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	_, err := s.ReadBatch(ms)
	ne, ok := err.(net.Error)
	if !ok || !ne.Timeout() {
		t.Fatalf("ReadBatch past deadline: err = %v, want timeout", err)
	}
}

// A datagram larger than the slot buffer must be dropped (N == 0) and
// counted, never delivered as a corrupt prefix — on the kernel-batched path
// (MSG_TRUNC), on a Socket's per-packet fallback, and through the Reader
// adapter over a plain conn, which is also checked to hand a Socket back
// as itself.
func TestReadBatchTruncation(t *testing.T) {
	if s := listenT(t, Config{}); Reader(s) != BatchReader(s) {
		t.Fatal("Reader wrapped a conn that already batches")
	}
	for _, tc := range []struct {
		name string
		open func(t *testing.T) net.PacketConn
	}{
		{"batched", func(t *testing.T) net.PacketConn {
			s := listenT(t, Config{})
			if !s.Batched() {
				t.Skip("kernel batching unavailable")
			}
			return s
		}},
		{"perpacket", func(t *testing.T) net.PacketConn { return listenT(t, Config{DisableBatch: true}) }},
		{"adapter", plainConn},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.open(t)
			br := Reader(c)
			peer := plainConn(t)
			for _, p := range [][]byte{make([]byte, 3000), []byte("ok")} {
				if _, err := peer.WriteTo(p, c.LocalAddr()); err != nil {
					t.Fatalf("WriteTo: %v", err)
				}
			}
			time.Sleep(50 * time.Millisecond)
			ms := make([]Message, 4)
			for i := range ms {
				ms[i].Buf = make([]byte, 2048)
			}
			_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
			var kept [][]byte
			for len(kept) == 0 {
				n, err := br.ReadBatch(ms)
				if err != nil {
					t.Fatalf("ReadBatch: %v", err)
				}
				for i := 0; i < n; i++ {
					if ms[i].N > 0 {
						if a, b := ms[i].Addr.String(), peer.LocalAddr().String(); a != b {
							t.Fatalf("slot %d addr = %s, want %s", i, a, b)
						}
						kept = append(kept, ms[i].Buf[:ms[i].N])
					}
				}
			}
			if len(kept) != 1 || string(kept[0]) != "ok" {
				t.Fatalf("kept %d packets (first of %d bytes), want just \"ok\"", len(kept), len(kept[0]))
			}
			if st := br.(interface{ Stats() SocketStats }).Stats(); st.Truncated != 1 {
				t.Fatalf("Truncated = %d, want 1", st.Truncated)
			}
		})
	}
}

// Close must unblock readers parked in ReadBatch and writers parked in
// WriteBatch, with no race on the shared scratch (run under -race).
func TestConcurrentClose(t *testing.T) {
	for _, tc := range []struct {
		name    string
		disable bool
	}{{"batched", false}, {"perpacket", true}} {
		t.Run(tc.name, func(t *testing.T) {
			s := listenT(t, Config{DisableBatch: tc.disable})
			sink := plainConn(t) // never reads: writers eventually block
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				ms := make([]Message, 8)
				for i := range ms {
					ms[i].Buf = make([]byte, 2048)
				}
				for {
					if _, err := s.ReadBatch(ms); err != nil {
						return
					}
				}
			}()
			ps := [][]byte{bytes.Repeat([]byte{1}, 1200), bytes.Repeat([]byte{2}, 1200)}
			for w := 0; w < 3; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						if _, err := s.WriteBatch(ps, sink.LocalAddr()); err != nil {
							return
						}
					}
				}()
			}
			time.Sleep(10 * time.Millisecond)
			s.Close()
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("Close did not unblock batch I/O within 5s")
			}
		})
	}
}

// A reuseport group shares one port and delivers every inbound packet to
// exactly one member; across many source flows the total must balance.
func TestListenGroup(t *testing.T) {
	socks, err := ListenGroup("udp", "127.0.0.1:0", 4, Config{})
	if err != nil {
		t.Fatalf("ListenGroup: %v", err)
	}
	defer func() {
		for _, s := range socks {
			s.Close()
		}
	}()
	if runtime.GOOS == "linux" {
		if len(socks) != 4 {
			t.Fatalf("group size = %d, want 4", len(socks))
		}
		port := socks[0].LocalAddr().(*net.UDPAddr).Port
		for _, s := range socks[1:] {
			if p := s.LocalAddr().(*net.UDPAddr).Port; p != port {
				t.Fatalf("group spans ports %d and %d", port, p)
			}
		}
	} else if len(socks) != 1 {
		t.Fatalf("fallback group size = %d, want 1", len(socks))
	}

	const flows, perFlow = 8, 5
	dst := socks[0].LocalAddr()
	for f := 0; f < flows; f++ {
		src := plainConn(t)
		for i := 0; i < perFlow; i++ {
			if _, err := src.WriteTo([]byte{byte(f), byte(i)}, dst); err != nil {
				t.Fatalf("WriteTo: %v", err)
			}
		}
	}
	var mu sync.Mutex
	total := 0
	var wg sync.WaitGroup
	for _, s := range socks {
		wg.Add(1)
		go func(s *Socket) {
			defer wg.Done()
			ms := make([]Message, 8)
			for i := range ms {
				ms[i].Buf = make([]byte, 64)
			}
			for {
				_ = s.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
				n, err := s.ReadBatch(ms)
				if err != nil {
					return
				}
				mu.Lock()
				for i := 0; i < n; i++ {
					if ms[i].N > 0 {
						total++
					}
				}
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	if total != flows*perFlow {
		t.Fatalf("group delivered %d packets, want %d", total, flows*perFlow)
	}
}

func TestSocketBufferGranted(t *testing.T) {
	s := listenT(t, Config{RecvBuf: 1 << 20, SendBuf: 1 << 20})
	st := s.Stats()
	if runtime.GOOS == "linux" && (st.RecvBufBytes <= 0 || st.SendBufBytes <= 0) {
		t.Fatalf("granted buffer sizes not reported: %+v", st)
	}
}
