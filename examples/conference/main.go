// Conference: a minimal one-way live session over loopback UDP using the
// public Session API — sender streams a dance scene, receiver reconstructs
// point clouds while its viewer (whose poses drive the sender's culling)
// moves around. See cmd/livo-conference for the two-way version.
package main

import (
	"fmt"
	"log"
	"net"
	"sync/atomic"
	"time"

	"livo"
	"livo/internal/scene"
)

func main() {
	cfg := scene.DefaultCaptureConfig()
	cfg.Cameras, cfg.Width, cfg.Height = 4, 64, 48
	video, err := scene.OpenVideo("dance5", cfg)
	if err != nil {
		log.Fatal(err)
	}

	sConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer sConn.Close()
	rConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer rConn.Close()

	send, err := livo.NewSendSession(sConn, rConn.LocalAddr(), livo.SendSessionConfig{
		Sender: livo.SenderConfig{Array: video.Array, ViewParams: livo.DefaultViewParams()},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer send.Close()

	recv, err := livo.NewRecvSession(rConn, sConn.LocalAddr(), livo.RecvSessionConfig{
		Receiver: livo.ReceiverConfig{Array: video.Array},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer recv.Close()

	var clouds atomic.Int64
	recv.OnCloud = func(seq uint32, cloud *livo.PointCloud) { clouds.Add(1) }
	viewer := livo.SynthUserTrace("viewer", 11, 3600, 30)
	start := time.Now()
	recv.PoseSource = func() livo.Pose { return viewer.At(time.Since(start).Seconds()) }
	go recv.Run()

	fmt.Println("streaming dance5 for 5 seconds over loopback UDP...")
	ticker := time.NewTicker(time.Second / 30)
	defer ticker.Stop()
	for i := 0; i < 150; i++ {
		<-ticker.C
		if _, err := send.SendViews(video.Frame(i % video.NumFrames())); err != nil {
			log.Fatal(err)
		}
		if i%30 == 29 {
			fmt.Printf("t=%ds: receiver reconstructed %d clouds, sender rate %.1f Mbps\n",
				(i+1)/30, clouds.Load(), send.Rate()/1e6)
		}
	}
	time.Sleep(300 * time.Millisecond)
	fmt.Printf("done: %d clouds (%.1f fps effective)\n", clouds.Load(), float64(clouds.Load())/5)
}
