package pointcloud

import (
	"math"

	"livo/internal/geom"
)

// VoxelGrid is a reusable flat open-addressed voxel accumulator — the
// receiver-side voxelization arena (§A.1). The probe table, its epoch
// stamps, and the dense accumulator array all persist across frames, so
// steady-state downsampling does not allocate.
//
// Accumulators are stored densely in first-appearance order and emitted in
// that order, so the output is deterministic (maps iterate randomly) and
// independent of table size or probe history.
//
// The zero value is ready to use.
type VoxelGrid struct {
	keys  []uint64 // packed voxel coordinate per table slot
	idx   []int32  // dense accumulator index per table slot
	epoch []uint32 // slot is live iff epoch matches cur
	cur   uint32
	accs  []voxAcc
}

// voxAcc accumulates one voxel cell: position sums, color sums, count, and
// the packed key (needed to reinsert on table growth).
type voxAcc struct {
	x, y, z    float64
	r, g, b, n int32
	key        uint64
}

// voxCoordBias shifts voxel indices into the unsigned 21-bit range packed
// into the hash key. Coordinates outside ±2^20 voxels clamp (at any sane
// voxel size that is kilometers from the origin).
const voxCoordBias = 1 << 20

func packVoxel(x, y, z float64, inv float64) uint64 {
	xi := clampVox(int64(math.Floor(x*inv)) + voxCoordBias)
	yi := clampVox(int64(math.Floor(y*inv)) + voxCoordBias)
	zi := clampVox(int64(math.Floor(z*inv)) + voxCoordBias)
	return xi<<42 | yi<<21 | zi
}

// voxHash mixes a packed key so the masked low bits carry the multiply's
// high-bit entropy.
func voxHash(key uint64) uint64 {
	h := key * 0x9E3779B97F4A7C15
	return h ^ h>>32
}

func clampVox(v int64) uint64 {
	if v < 0 {
		return 0
	}
	if v > 1<<21-1 {
		return 1<<21 - 1
	}
	return uint64(v)
}

// DownsampleInto voxelizes src into dst, reusing dst's slices: at most one
// point per cubic voxel of the given size (meters), the centroid of the
// voxel's points with their average color. A non-positive voxel size
// copies src verbatim.
func (g *VoxelGrid) DownsampleInto(dst, src *Cloud, voxel float64) {
	dst.Positions = dst.Positions[:0]
	dst.Colors = dst.Colors[:0]
	if voxel <= 0 || src.Len() == 0 {
		dst.Positions = append(dst.Positions, src.Positions...)
		dst.Colors = append(dst.Colors, src.Colors...)
		return
	}
	g.reset(src.Len())
	inv := 1 / voxel
	for i, p := range src.Positions {
		key := packVoxel(p.X, p.Y, p.Z, inv)
		a := g.lookup(key)
		a.x += p.X
		a.y += p.Y
		a.z += p.Z
		a.r += int32(src.Colors[i][0])
		a.g += int32(src.Colors[i][1])
		a.b += int32(src.Colors[i][2])
		a.n++
	}
	for i := range g.accs {
		a := &g.accs[i]
		inv := 1 / float64(a.n)
		dst.Positions = append(dst.Positions, geom.V3(a.x*inv, a.y*inv, a.z*inv))
		dst.Colors = append(dst.Colors, [3]uint8{
			uint8(float64(a.r)*inv + 0.5),
			uint8(float64(a.g)*inv + 0.5),
			uint8(float64(a.b)*inv + 0.5),
		})
	}
}

// reset clears the grid for a new frame, sizing the table for an expected
// point count. Epoch stamping makes the clear O(1) except when the table
// grows or the 32-bit epoch wraps.
func (g *VoxelGrid) reset(expectPoints int) {
	g.accs = g.accs[:0]
	want := 64
	for want < expectPoints/2 {
		want <<= 1
	}
	if len(g.keys) < want {
		g.keys = make([]uint64, want)
		g.idx = make([]int32, want)
		g.epoch = make([]uint32, want)
		g.cur = 0
	}
	g.cur++
	if g.cur == 0 { // epoch wrapped: stamps are ambiguous, hard-clear
		for i := range g.epoch {
			g.epoch[i] = 0
		}
		g.cur = 1
	}
}

// lookup returns the accumulator for key, inserting an empty one on first
// sight. Fibonacci-hash probing over a power-of-two table.
func (g *VoxelGrid) lookup(key uint64) *voxAcc {
	mask := uint64(len(g.keys) - 1)
	slot := voxHash(key) & mask
	for {
		if g.epoch[slot] != g.cur {
			if len(g.accs)*4 >= len(g.keys)*3 {
				g.grow()
				mask = uint64(len(g.keys) - 1)
				slot = voxHash(key) & mask
				continue
			}
			g.epoch[slot] = g.cur
			g.keys[slot] = key
			g.idx[slot] = int32(len(g.accs))
			g.accs = append(g.accs, voxAcc{key: key})
			return &g.accs[len(g.accs)-1]
		}
		if g.keys[slot] == key {
			return &g.accs[g.idx[slot]]
		}
		slot = (slot + 1) & mask
	}
}

// grow doubles the table and reinserts the live accumulators.
func (g *VoxelGrid) grow() {
	n := len(g.keys) * 2
	g.keys = make([]uint64, n)
	g.idx = make([]int32, n)
	g.epoch = make([]uint32, n)
	g.cur = 1
	mask := uint64(n - 1)
	for i := range g.accs {
		key := g.accs[i].key
		slot := voxHash(key) & mask
		for g.epoch[slot] == g.cur {
			slot = (slot + 1) & mask
		}
		g.epoch[slot] = g.cur
		g.keys[slot] = key
		g.idx[slot] = int32(i)
	}
}
