package frame

import "fmt"

// Tiler multiplexes the color (resp. depth) images of N cameras into one
// large frame (§3.2, Fig 3). Each camera owns a fixed rectangle of the tiled
// frame across all frames of a session, which preserves macroblock locality
// and keeps 2D inter-frame prediction effective.
type Tiler struct {
	N            int // number of cameras
	TileW, TileH int // per-camera image resolution
	Cols, Rows   int // grid layout
}

// NewTiler picks a near-square grid that fits n tiles of tileW x tileH.
func NewTiler(n, tileW, tileH int) (*Tiler, error) {
	if n <= 0 || tileW <= 0 || tileH <= 0 {
		return nil, fmt.Errorf("tiler: invalid arguments n=%d tile=%dx%d", n, tileW, tileH)
	}
	// Choose cols to make the tiled frame roughly 16:9-ish; a near-square
	// grid of tiles works well for the camera counts we target (≤16).
	cols := 1
	for cols*cols < n {
		cols++
	}
	rows := (n + cols - 1) / cols
	return &Tiler{N: n, TileW: tileW, TileH: tileH, Cols: cols, Rows: rows}, nil
}

// FrameSize returns the tiled frame dimensions.
func (t *Tiler) FrameSize() (w, h int) { return t.Cols * t.TileW, t.Rows * t.TileH }

// TileOrigin returns the top-left pixel of camera i's rectangle.
func (t *Tiler) TileOrigin(i int) (x, y int) {
	return (i % t.Cols) * t.TileW, (i / t.Cols) * t.TileH
}

// ComposeColor tiles the N per-camera color images into one frame. It
// returns an error if the number or size of inputs does not match.
func (t *Tiler) ComposeColor(views []*ColorImage) (*ColorImage, error) {
	if len(views) != t.N {
		return nil, fmt.Errorf("tiler: got %d color views, want %d", len(views), t.N)
	}
	w, h := t.FrameSize()
	out := NewColorImage(w, h)
	for i, v := range views {
		if v.W != t.TileW || v.H != t.TileH {
			return nil, fmt.Errorf("tiler: view %d is %dx%d, want %dx%d", i, v.W, v.H, t.TileW, t.TileH)
		}
		ox, oy := t.TileOrigin(i)
		for y := 0; y < t.TileH; y++ {
			src := v.Pix[3*y*t.TileW : 3*(y+1)*t.TileW]
			dstOff := 3 * ((oy+y)*w + ox)
			copy(out.Pix[dstOff:dstOff+3*t.TileW], src)
		}
	}
	return out, nil
}

// ComposeDepth tiles the N per-camera depth images into one frame.
func (t *Tiler) ComposeDepth(views []*DepthImage) (*DepthImage, error) {
	if len(views) != t.N {
		return nil, fmt.Errorf("tiler: got %d depth views, want %d", len(views), t.N)
	}
	w, h := t.FrameSize()
	out := NewDepthImage(w, h)
	for i, v := range views {
		if v.W != t.TileW || v.H != t.TileH {
			return nil, fmt.Errorf("tiler: view %d is %dx%d, want %dx%d", i, v.W, v.H, t.TileW, t.TileH)
		}
		ox, oy := t.TileOrigin(i)
		for y := 0; y < t.TileH; y++ {
			src := v.Pix[y*t.TileW : (y+1)*t.TileW]
			dstOff := (oy+y)*w + ox
			copy(out.Pix[dstOff:dstOff+t.TileW], src)
		}
	}
	return out, nil
}

// ExtractColorInto cuts camera i's rectangle into an existing tile-sized
// image without allocating (the receiver's per-frame path).
func (t *Tiler) ExtractColorInto(tiled *ColorImage, i int, out *ColorImage) error {
	w, h := t.FrameSize()
	if tiled.W != w || tiled.H != h {
		return fmt.Errorf("tiler: tiled frame is %dx%d, want %dx%d", tiled.W, tiled.H, w, h)
	}
	if i < 0 || i >= t.N {
		return fmt.Errorf("tiler: camera index %d out of range [0,%d)", i, t.N)
	}
	if out.W != t.TileW || out.H != t.TileH {
		return fmt.Errorf("tiler: output is %dx%d, want %dx%d", out.W, out.H, t.TileW, t.TileH)
	}
	t.extractColorInto(tiled, i, out)
	return nil
}

func (t *Tiler) extractColorInto(tiled *ColorImage, i int, out *ColorImage) {
	w, _ := t.FrameSize()
	ox, oy := t.TileOrigin(i)
	for y := 0; y < t.TileH; y++ {
		srcOff := 3 * ((oy+y)*w + ox)
		copy(out.Pix[3*y*t.TileW:3*(y+1)*t.TileW], tiled.Pix[srcOff:srcOff+3*t.TileW])
	}
}

// ExtractDepth cuts camera i's rectangle back out of a tiled depth frame.
func (t *Tiler) ExtractDepth(tiled *DepthImage, i int) (*DepthImage, error) {
	w, h := t.FrameSize()
	if tiled.W != w || tiled.H != h {
		return nil, fmt.Errorf("tiler: tiled frame is %dx%d, want %dx%d", tiled.W, tiled.H, w, h)
	}
	if i < 0 || i >= t.N {
		return nil, fmt.Errorf("tiler: camera index %d out of range [0,%d)", i, t.N)
	}
	out := NewDepthImage(t.TileW, t.TileH)
	t.extractDepthInto(tiled, i, out)
	return out, nil
}

// ExtractDepthInto cuts camera i's rectangle into an existing tile-sized
// image without allocating.
func (t *Tiler) ExtractDepthInto(tiled *DepthImage, i int, out *DepthImage) error {
	w, h := t.FrameSize()
	if tiled.W != w || tiled.H != h {
		return fmt.Errorf("tiler: tiled frame is %dx%d, want %dx%d", tiled.W, tiled.H, w, h)
	}
	if i < 0 || i >= t.N {
		return fmt.Errorf("tiler: camera index %d out of range [0,%d)", i, t.N)
	}
	if out.W != t.TileW || out.H != t.TileH {
		return fmt.Errorf("tiler: output is %dx%d, want %dx%d", out.W, out.H, t.TileW, t.TileH)
	}
	t.extractDepthInto(tiled, i, out)
	return nil
}

func (t *Tiler) extractDepthInto(tiled *DepthImage, i int, out *DepthImage) {
	w, _ := t.FrameSize()
	ox, oy := t.TileOrigin(i)
	for y := 0; y < t.TileH; y++ {
		srcOff := (oy+y)*w + ox
		copy(out.Pix[y*t.TileW:(y+1)*t.TileW], tiled.Pix[srcOff:srcOff+t.TileW])
	}
}
