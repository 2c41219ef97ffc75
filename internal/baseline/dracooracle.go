package baseline

import (
	"time"

	"livo/internal/codec/draco"
	"livo/internal/geom"
	"livo/internal/pointcloud"
)

// DracoOracleFPS is the frame rate Draco-Oracle runs at: full frame rate
// stalls >90% of frames on full scenes, so the paper evaluates it at 15 fps
// consistent with prior work [50] (§4.1).
const DracoOracleFPS = 15

// DracoOracle streams perfectly-culled point clouds through the octree
// codec, choosing per frame the highest-quality quantization whose
// compressed size fits the bandwidth budget and whose compression time
// fits the inter-frame interval. The paper builds this table offline; here
// the size search runs per frame but only the chosen encode's time is
// charged, matching the oracle's runtime behaviour.
type DracoOracle struct {
	// Speed is the octree codec's speed level (default 5).
	Speed int
	// MinQuantBits..MaxQuantBits bound the quality search (3..14).
	MinQuantBits, MaxQuantBits int
	// FPS is the streaming frame rate (default DracoOracleFPS).
	FPS int
}

// NewDracoOracle returns an oracle with the defaults of §4.1.
func NewDracoOracle() *DracoOracle {
	return &DracoOracle{Speed: 5, MinQuantBits: 5, MaxQuantBits: 14, FPS: DracoOracleFPS}
}

// DracoResult is the oracle's per-frame outcome.
type DracoResult struct {
	Stalled bool
	Bytes   int
	// CulledPoints is the size of the encoder input after perfect culling
	// — the quantity compression cost scales with.
	CulledPoints int
	QuantBits    int
	EncodeTime   float64 // seconds, for the chosen encode only
	Decoded      *pointcloud.Cloud
}

// ProcessFrame streams one ground-truth cloud: cull with the *actual*
// receiver frustum (perfect culling, §4.1), pick the best fitting
// quantization, encode, decode. budgetBytes is the per-frame byte budget
// from the target bandwidth at the oracle's frame rate.
func (o *DracoOracle) ProcessFrame(gt *pointcloud.Cloud, actual geom.Frustum, budgetBytes int) (DracoResult, error) {
	culled := gt.CullFrustum(actual)
	if culled.Len() == 0 {
		return DracoResult{Decoded: culled}, nil
	}
	nCulled := culled.Len()
	// Binary search the largest quantization that fits (size is monotone
	// in quantBits). This search emulates the offline table lookup; only
	// the final encode's time is charged.
	lo, hi := o.MinQuantBits, o.MaxQuantBits
	bestQB := -1
	var bestData []byte
	for lo <= hi {
		mid := (lo + hi) / 2
		data, err := draco.Encode(culled, draco.Params{QuantBits: mid, Speed: o.Speed, ColorBits: 8})
		if err != nil {
			return DracoResult{}, err
		}
		if len(data) <= budgetBytes {
			bestQB = mid
			bestData = data
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	if bestQB < 0 {
		return DracoResult{Stalled: true, CulledPoints: nCulled}, nil // nothing fits
	}
	// Charge the chosen encode's wall time (re-encode to time it cleanly).
	start := time.Now()
	data, err := draco.Encode(culled, draco.Params{QuantBits: bestQB, Speed: o.Speed, ColorBits: 8})
	if err != nil {
		return DracoResult{}, err
	}
	encodeTime := time.Since(start).Seconds()
	_ = bestData
	// NOTE: the compression-time-vs-interval stall check is the caller's
	// job (the replay harness models full-scale compute cost; comparing
	// this machine's wall time against the interval would make results
	// hardware-dependent).
	decoded, err := draco.Decode(data)
	if err != nil {
		return DracoResult{}, err
	}
	return DracoResult{
		Bytes:        len(data),
		CulledPoints: nCulled,
		QuantBits:    bestQB,
		EncodeTime:   encodeTime,
		Decoded:      decoded,
	}, nil
}
