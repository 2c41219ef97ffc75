package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"livo/internal/codec/vcodec"
	"livo/internal/geom"
)

// Golden digests of TestSenderBitstreamGolden, captured before the codec's
// transform kernels were rewritten. Change them only with a deliberate
// bitstream change, and say so.
const (
	goldenSenderPackets = "f615b2b3962ebaaeca795bdf9b944b2f3eed02411043e152883c451c463feabf"
	goldenSenderRecon   = "da002df7f3be4fe610dcc0b18e0e673236e98ab9ce58035b3d1823f28d75739b"
)

// TestSenderBitstreamGolden is vcodec's TestBitstreamGolden one level up:
// the full sender (cull, tile, split, 4:2:0 colour, Scaled16 depth, the
// three-rung ladder, a squeezed frame that forces corrective re-encodes)
// and the receiver's decode, pinned by SHA-256 over every rung's packets
// and the last paired frame.
func TestSenderBitstreamGolden(t *testing.T) {
	v := testVideo(t, "office1")
	s, err := NewSender(SenderConfig{
		Variant:    LiVo,
		Array:      v.Array,
		ViewParams: geom.DefaultViewParams(),
		GOP:        3,
		Ladder:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiver(ReceiverConfig{Array: v.Array})
	if err != nil {
		t.Fatal(err)
	}
	s.ObservePose(0, viewerPose())
	s.ObserveRTT(0.1)
	ph := sha256.New()
	var pf *PairedFrame
	for i := 0; i < 6; i++ {
		bps := 40e6
		if i == 4 {
			bps = 0.5e6
		}
		enc, err := s.ProcessFrame(v.Frame(i), bps)
		if err != nil {
			t.Fatal(err)
		}
		for _, rungs := range [][]*vcodec.Packet{enc.ColorRungs, enc.DepthRungs} {
			for _, p := range rungs {
				var hdr [12]byte
				hdr[0] = p.Rung
				if p.Key {
					hdr[1] = 1
				}
				binary.LittleEndian.PutUint32(hdr[4:], p.Seq)
				binary.LittleEndian.PutUint32(hdr[8:], uint32(p.QP))
				ph.Write(hdr[:])
				ph.Write(p.Data)
			}
		}
		if _, err := r.PushColor(enc.Color); err != nil {
			t.Fatal(err)
		}
		if pf, err = r.PushDepth(enc.Depth); err != nil || pf == nil {
			t.Fatalf("frame %d: no paired frame (%v)", i, err)
		}
	}
	rh := sha256.New()
	rh.Write(pf.TiledColor.Pix)
	if err := binary.Write(rh, binary.LittleEndian, pf.TiledDepth.Pix); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(ph.Sum(nil)); got != goldenSenderPackets {
		t.Errorf("packets sha256 = %s, want %s", got, goldenSenderPackets)
	}
	if got := hex.EncodeToString(rh.Sum(nil)); got != goldenSenderRecon {
		t.Errorf("reconstruction sha256 = %s, want %s", got, goldenSenderRecon)
	}
}
