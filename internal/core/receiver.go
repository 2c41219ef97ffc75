package core

import (
	"fmt"

	"livo/internal/camera"
	"livo/internal/codec/depth"
	"livo/internal/codec/vcodec"
	"livo/internal/frame"
	"livo/internal/frametrace"
	"livo/internal/geom"
	"livo/internal/pipeline"
	"livo/internal/pointcloud"
	"livo/internal/telemetry"
)

// ReceiverConfig configures a LiVo receiver. Camera calibration and tiling
// geometry are exchanged once at connection setup (§A.1); everything else
// the decoders must agree on with the sender is fixed: the depth scaling
// range is depth.DefaultMaxMM on both ends, and quarter-resolution rungs
// are recognized from vcodec.DefaultLadder(), the sender's only ladder.
type ReceiverConfig struct {
	Array camera.Array
	// VoxelSize controls receiver-side voxelization before rendering
	// (§A.1); 0 disables it.
	VoxelSize float64
	// Telemetry receives frame-path counters and gauges (DESIGN.md §6); nil
	// uses telemetry.Default.
	Telemetry *telemetry.Registry
	// Trace, when non-nil, receives reconstruct hop stamps for the
	// cross-hop frame ledger (DESIGN.md §6); the receive core
	// (internal/session) stamps the decode hops. nil disables tracing.
	Trace *frametrace.Ledger
}

// PairedFrame is a decoded, sequence-matched pair of tiled frames ready
// for reconstruction.
type PairedFrame struct {
	Seq        uint32
	TiledColor *frame.ColorImage
	TiledDepth *frame.DepthImage
}

// Receiver decodes the two streams, re-synchronizes them by frame sequence
// number, and reconstructs point clouds.
type Receiver struct {
	cfg      ReceiverConfig
	tiler    *frame.Tiler
	colorDec *vcodec.Decoder
	depthDec *depth.Decoder

	// Quality-ladder state: quarterRung marks which rung ids carry
	// quarter-resolution frames; the quarter decoders are created lazily on
	// the first quarter packet (a subscriber pinned to full-res rungs never
	// pays for them). Quarter color is upsampled bilinearly and quarter
	// depth goes through the edge-aware superres path (VoLUT-style), so
	// downstream pairing and reconstruction always see full-res tiles.
	quarterRung [4]bool
	qColorDec   *vcodec.Decoder
	qDepthDec   *depth.Decoder
	qMarkersOK  bool

	pendingColor map[uint32]*frame.ColorImage
	pendingDepth map[uint32]*frame.DepthImage
	markersOK    bool
	mismatches   int
	lastGood     *PairedFrame

	// Reconstruction arenas (see Reconstruct): per-camera view images,
	// the unprojector's point buffers, the voxel grid, and the two cloud
	// headers the returned pointer alternates between. All are overwritten
	// by the next Reconstruct call.
	views     []frame.RGBDFrame
	viewErrs  []error
	extractPF *PairedFrame
	extractFn func(int)
	unproj    camera.Unprojector
	grid      pointcloud.VoxelGrid
	raw       pointcloud.Cloud
	voxed     pointcloud.Cloud

	// Telemetry handles, resolved once in NewReceiver (DESIGN.md §6).
	mPaired       *telemetry.Counter
	mDecodeErrors *telemetry.Counter
	mMismatches   *telemetry.Counter
	gPendingPairs *telemetry.Gauge
}

// NewReceiver builds a receiver matching the sender's configuration.
func NewReceiver(cfg ReceiverConfig) (*Receiver, error) {
	if cfg.Array.N() == 0 {
		return nil, fmt.Errorf("core: receiver needs at least one camera")
	}
	in := cfg.Array.Cameras[0].Intrinsics
	tiler, err := frame.NewTiler(cfg.Array.N(), in.W, in.H)
	if err != nil {
		return nil, err
	}
	tw, th := tiler.FrameSize()
	colorDec, err := vcodec.NewDecoder(vcodec.ColorConfig(tw, th))
	if err != nil {
		return nil, err
	}
	depthDec, err := depth.NewDecoder(depth.Config{Scheme: depth.Scaled16, Width: tw, Height: th})
	if err != nil {
		return nil, err
	}
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.Default
	}
	r := &Receiver{
		cfg:          cfg,
		tiler:        tiler,
		colorDec:     colorDec,
		depthDec:     depthDec,
		pendingColor: make(map[uint32]*frame.ColorImage),
		pendingDepth: make(map[uint32]*frame.DepthImage),
		markersOK:    tw >= frame.MarkerWidth && th >= frame.MarkerHeight,

		mPaired:       tel.Counter("livo_frames_paired_total"),
		mDecodeErrors: tel.Counter("livo_decode_errors_total"),
		mMismatches:   tel.Counter("livo_seq_mismatch_total"),
		gPendingPairs: tel.Gauge("livo_pending_unpaired_frames"),
	}
	for _, rung := range vcodec.DefaultLadder() {
		if rung.Quarter && int(rung.ID) < len(r.quarterRung) {
			r.quarterRung[rung.ID] = true
		}
	}
	qw, qh := (tw+1)/2, (th+1)/2
	r.qMarkersOK = qw >= frame.MarkerWidth && qh >= frame.MarkerHeight
	return r, nil
}

// quarterDims is the quarter rung's tile geometry.
func (r *Receiver) quarterDims() (int, int) {
	tw, th := r.tiler.FrameSize()
	return (tw + 1) / 2, (th + 1) / 2
}

// decodeQuarterColor decodes a quarter-rung color packet and lifts it to
// full resolution: read (and zero) the quarter marker strip first — the
// marker must not smear past the full-res strip the pairing path wipes —
// then upsample bilinearly. Returns the full-res image and the frame seq.
func (r *Receiver) decodeQuarterColor(pkt *vcodec.Packet) (*frame.ColorImage, uint32, error) {
	tw, th := r.tiler.FrameSize()
	if r.qColorDec == nil {
		dec, err := vcodec.NewDecoder(vcodec.ColorConfig(r.quarterDims()))
		if err != nil {
			return nil, 0, err
		}
		r.qColorDec = dec
	}
	qim := frame.NewColorImage(r.quarterDims())
	if err := r.qColorDec.DecodeColorInto(pkt, qim); err != nil {
		return nil, 0, err
	}
	seq := pkt.Seq
	if r.qMarkersOK {
		if mseq, err := frame.DecodeColorMarker(qim); err == nil {
			if mseq != pkt.Seq {
				r.mismatches++
				r.mMismatches.Inc()
			}
			seq = mseq
		}
		zeroColorStrip(qim)
	}
	return upsampleColor2x(qim, tw, th), seq, nil
}

// decodeQuarterDepth decodes a quarter-rung depth packet and recovers full
// resolution with the edge-aware superres path (depth.SuperResolve2x).
func (r *Receiver) decodeQuarterDepth(pkt *vcodec.Packet) (*frame.DepthImage, uint32, error) {
	tw, th := r.tiler.FrameSize()
	if r.qDepthDec == nil {
		qw, qh := r.quarterDims()
		dec, err := depth.NewDecoder(depth.Config{Scheme: depth.Scaled16, Width: qw, Height: qh})
		if err != nil {
			return nil, 0, err
		}
		r.qDepthDec = dec
	}
	qim, err := r.qDepthDec.Decode(pkt)
	if err != nil {
		return nil, 0, err
	}
	seq := pkt.Seq
	if r.qMarkersOK {
		if mseq, err := frame.DecodeDepthMarker(qim); err == nil {
			if mseq != pkt.Seq {
				r.mismatches++
				r.mMismatches.Inc()
			}
			seq = mseq
		}
		for y := 0; y < frame.MarkerHeight; y++ {
			for x := 0; x < frame.MarkerWidth; x++ {
				qim.Set(x, y, 0)
			}
		}
	}
	return depth.SuperResolve2x(qim, tw, th, depth.DefaultSuperresJumpMM), seq, nil
}

// zeroColorStrip wipes the marker strip of a color image.
func zeroColorStrip(im *frame.ColorImage) {
	for y := 0; y < frame.MarkerHeight; y++ {
		for x := 0; x < frame.MarkerWidth; x++ {
			im.Set(x, y, 0, 0, 0)
		}
	}
}

// upsampleColor2x lifts a half-resolution color image to outW x outH:
// even output samples copy their source pixel, odd ones average the two
// bracketing sources (separable linear interpolation).
func upsampleColor2x(src *frame.ColorImage, outW, outH int) *frame.ColorImage {
	out := frame.NewColorImage(outW, outH)
	for y := 0; y < outH; y++ {
		sy0 := y / 2
		sy1 := sy0
		if y&1 == 1 && sy0+1 < src.H {
			sy1 = sy0 + 1
		}
		for x := 0; x < outW; x++ {
			sx0 := x / 2
			sx1 := sx0
			if x&1 == 1 && sx0+1 < src.W {
				sx1 = sx0 + 1
			}
			r00, g00, b00 := src.At(sx0, sy0)
			r10, g10, b10 := src.At(sx1, sy0)
			r01, g01, b01 := src.At(sx0, sy1)
			r11, g11, b11 := src.At(sx1, sy1)
			out.Set(x, y,
				uint8((int(r00)+int(r10)+int(r01)+int(r11))/4),
				uint8((int(g00)+int(g10)+int(g01)+int(g11))/4),
				uint8((int(b00)+int(b10)+int(b01)+int(b11))/4))
		}
	}
	return out
}

// PushColor decodes one color packet; if its depth counterpart has already
// arrived, the paired frame is returned.
func (r *Receiver) PushColor(pkt *vcodec.Packet) (*PairedFrame, error) {
	var im *frame.ColorImage
	var seq uint32
	if int(pkt.Rung) < len(r.quarterRung) && r.quarterRung[pkt.Rung] {
		var err error
		im, seq, err = r.decodeQuarterColor(pkt)
		if err != nil {
			r.mDecodeErrors.Inc()
			return nil, err
		}
	} else {
		im = frame.NewColorImage(r.tiler.FrameSize())
		if err := r.colorDec.DecodeColorInto(pkt, im); err != nil {
			r.mDecodeErrors.Inc()
			return nil, err
		}
		seq = pkt.Seq
		if r.markersOK {
			if mseq, err := frame.DecodeColorMarker(im); err == nil {
				if mseq != pkt.Seq {
					r.mismatches++
					r.mMismatches.Inc()
				}
				seq = mseq
			}
		}
	}
	if d, ok := r.pendingDepth[seq]; ok {
		delete(r.pendingDepth, seq)
		return r.pair(seq, im, d), nil
	}
	r.pendingColor[seq] = im
	r.gc(seq)
	return nil, nil
}

// PushDepth decodes one depth packet; if its color counterpart has already
// arrived, the paired frame is returned.
func (r *Receiver) PushDepth(pkt *vcodec.Packet) (*PairedFrame, error) {
	var im *frame.DepthImage
	var seq uint32
	if int(pkt.Rung) < len(r.quarterRung) && r.quarterRung[pkt.Rung] {
		var err error
		im, seq, err = r.decodeQuarterDepth(pkt)
		if err != nil {
			r.mDecodeErrors.Inc()
			return nil, err
		}
	} else {
		var err error
		im, err = r.depthDec.Decode(pkt)
		if err != nil {
			r.mDecodeErrors.Inc()
			return nil, err
		}
		seq = pkt.Seq
		if r.markersOK {
			if mseq, err := frame.DecodeDepthMarker(im); err == nil {
				if mseq != pkt.Seq {
					r.mismatches++
					r.mMismatches.Inc()
				}
				seq = mseq
			}
		}
	}
	if c, ok := r.pendingColor[seq]; ok {
		delete(r.pendingColor, seq)
		return r.pair(seq, c, im), nil
	}
	r.pendingDepth[seq] = im
	r.gc(seq)
	return nil, nil
}

// pair zeroes the marker strip (it is codec payload, not scene content)
// and wraps the frames.
func (r *Receiver) pair(seq uint32, c *frame.ColorImage, d *frame.DepthImage) *PairedFrame {
	if r.markersOK {
		for y := 0; y < frame.MarkerHeight; y++ {
			for x := 0; x < frame.MarkerWidth; x++ {
				d.Set(x, y, 0)
				c.Set(x, y, 0, 0, 0)
			}
		}
	}
	pf := &PairedFrame{Seq: seq, TiledColor: c, TiledDepth: d}
	r.lastGood = pf
	r.mPaired.Inc()
	r.gPendingPairs.SetInt(int64(len(r.pendingColor) + len(r.pendingDepth)))
	return pf
}

// LastGood returns the most recent successfully paired frame — the
// concealment source while a PLI-requested key frame is in flight (§A.1) —
// or nil before the first pair completes.
func (r *Receiver) LastGood() *PairedFrame { return r.lastGood }

// gc drops unpaired frames outside a sequence window around the latest
// push: if one stream skips a frame the other must not leak (LiVo "simply
// skips the frame", §A.1). The window is two-sided — a corrupted in-band
// marker can yield an arbitrary far-future sequence number that a one-sided
// check would never evict — so each pending map is bounded at ~2*maxLag
// entries for the lifetime of a session.
func (r *Receiver) gc(latest uint32) {
	const maxLag = 90 // 3 seconds at 30 fps
	for seq := range r.pendingColor {
		if d := int32(latest - seq); d > maxLag || d < -maxLag {
			delete(r.pendingColor, seq)
		}
	}
	for seq := range r.pendingDepth {
		if d := int32(latest - seq); d > maxLag || d < -maxLag {
			delete(r.pendingDepth, seq)
		}
	}
}

// SeqMismatches counts frames whose in-band marker disagreed with the
// transport sequence number (should be 0 in healthy sessions).
func (r *Receiver) SeqMismatches() int { return r.mismatches }

// Reconstruct converts a paired frame into a point cloud in the global
// frame (§A.1): extract per-camera views, unproject valid pixels,
// voxelize, and cull to the viewer's current frustum. Pass nil frustum to
// keep the full cloud.
//
// Every stage runs out of per-receiver arenas: the extracted view images,
// the unprojected point slices, the voxel grid, and the returned cloud
// are all owned by the receiver and overwritten by the next Reconstruct
// call — the steady-state path does not allocate. Callers that retain a
// cloud across frames must Clone it.
func (r *Receiver) Reconstruct(pf *PairedFrame, frustum *geom.Frustum) (*pointcloud.Cloud, error) {
	defer r.cfg.Trace.StampNow(frametrace.HopReconstruct, 0, pf.Seq, frametrace.NoSub)
	n := r.cfg.Array.N()
	if r.views == nil {
		r.views = make([]frame.RGBDFrame, n)
		r.viewErrs = make([]error, n)
		for i := range r.views {
			r.views[i] = frame.RGBDFrame{
				Color: frame.NewColorImage(r.tiler.TileW, r.tiler.TileH),
				Depth: frame.NewDepthImage(r.tiler.TileW, r.tiler.TileH),
			}
		}
		r.extractFn = func(i int) {
			pf := r.extractPF
			if err := r.tiler.ExtractColorInto(pf.TiledColor, i, r.views[i].Color); err != nil {
				r.viewErrs[i] = err
				return
			}
			r.viewErrs[i] = r.tiler.ExtractDepthInto(pf.TiledDepth, i, r.views[i].Depth)
		}
	}
	// Tile extraction, sharded by camera: each view writes a disjoint
	// image pair and its own error slot.
	r.extractPF = pf
	pipeline.ParFor(n, r.extractFn)
	r.extractPF = nil
	for _, err := range r.viewErrs {
		if err != nil {
			return nil, err
		}
	}
	pos, cols, err := r.unproj.PointsInto(r.cfg.Array, r.views)
	if err != nil {
		return nil, err
	}
	r.raw.Positions, r.raw.Colors = pos, cols
	cloud := &r.raw
	if r.cfg.VoxelSize > 0 {
		r.grid.DownsampleInto(&r.voxed, cloud, r.cfg.VoxelSize)
		cloud = &r.voxed
	}
	if frustum != nil {
		cloud.CullFrustumInPlace(*frustum)
	}
	return cloud, nil
}
