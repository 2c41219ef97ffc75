// Package frame provides the 2D image types LiVo streams: 8-bit RGB color
// images and 16-bit millimeter depth images, plus the tiling composer that
// multiplexes N camera views into a single color frame and a single depth
// frame (§3.2), and the in-band frame-sequence markers the receiver uses to
// re-synchronize the two streams (§A.1; the paper uses QR codes, we use a
// simpler binary block code with the same role — see DESIGN.md).
package frame

import "fmt"

// ColorImage is an 8-bit-per-channel RGB image. Pix holds 3*W*H bytes in
// row-major RGB order.
type ColorImage struct {
	W, H int
	Pix  []uint8
}

// NewColorImage allocates a zeroed (black) color image.
func NewColorImage(w, h int) *ColorImage {
	return &ColorImage{W: w, H: h, Pix: make([]uint8, 3*w*h)}
}

// At returns the RGB triple at (x, y). No bounds checking beyond the slice's.
func (im *ColorImage) At(x, y int) (r, g, b uint8) {
	i := 3 * (y*im.W + x)
	return im.Pix[i], im.Pix[i+1], im.Pix[i+2]
}

// Set stores the RGB triple at (x, y).
func (im *ColorImage) Set(x, y int, r, g, b uint8) {
	i := 3 * (y*im.W + x)
	im.Pix[i], im.Pix[i+1], im.Pix[i+2] = r, g, b
}

// Clone returns a deep copy.
func (im *ColorImage) Clone() *ColorImage {
	c := NewColorImage(im.W, im.H)
	copy(c.Pix, im.Pix)
	return c
}

// SizeBytes returns the raw (uncompressed) size of the image in bytes.
func (im *ColorImage) SizeBytes() int { return len(im.Pix) }

// DepthImage is a 16-bit single-channel depth image. Values are millimeters;
// 0 means "no measurement" (or culled). Commodity RGB-D cameras output
// 16-bit depth at millimeter resolution with a 5-6 m range (§3.2).
type DepthImage struct {
	W, H int
	Pix  []uint16
}

// NewDepthImage allocates a zeroed depth image.
func NewDepthImage(w, h int) *DepthImage {
	return &DepthImage{W: w, H: h, Pix: make([]uint16, w*h)}
}

// At returns the depth in millimeters at (x, y).
func (im *DepthImage) At(x, y int) uint16 { return im.Pix[y*im.W+x] }

// Set stores a depth value in millimeters at (x, y).
func (im *DepthImage) Set(x, y int, mm uint16) { im.Pix[y*im.W+x] = mm }

// Clone returns a deep copy.
func (im *DepthImage) Clone() *DepthImage {
	c := NewDepthImage(im.W, im.H)
	copy(c.Pix, im.Pix)
	return c
}

// SizeBytes returns the raw (uncompressed) size of the image in bytes.
func (im *DepthImage) SizeBytes() int { return 2 * len(im.Pix) }

// ValidCount returns the number of pixels with a depth measurement (non-zero).
func (im *DepthImage) ValidCount() int {
	n := 0
	for _, d := range im.Pix {
		if d != 0 {
			n++
		}
	}
	return n
}

// RGBDFrame pairs the pixel-aligned color and depth images from one camera
// at one instant. LiVo downsamples color to the depth resolution so the two
// are pixel-aligned (§3.2), which this type assumes.
type RGBDFrame struct {
	Color *ColorImage
	Depth *DepthImage
}

// NewRGBDFrame allocates a zeroed RGB-D frame.
func NewRGBDFrame(w, h int) RGBDFrame {
	return RGBDFrame{Color: NewColorImage(w, h), Depth: NewDepthImage(w, h)}
}

// Validate checks that color and depth are present and pixel-aligned.
func (f RGBDFrame) Validate() error {
	if f.Color == nil || f.Depth == nil {
		return fmt.Errorf("frame: missing color or depth image")
	}
	if f.Color.W != f.Depth.W || f.Color.H != f.Depth.H {
		return fmt.Errorf("frame: color %dx%d not aligned with depth %dx%d",
			f.Color.W, f.Color.H, f.Depth.W, f.Depth.H)
	}
	return nil
}

// Clone deep-copies the frame.
func (f RGBDFrame) Clone() RGBDFrame {
	return RGBDFrame{Color: f.Color.Clone(), Depth: f.Depth.Clone()}
}

// SizeBytes returns the raw frame size (color + depth planes).
func (f RGBDFrame) SizeBytes() int { return f.Color.SizeBytes() + f.Depth.SizeBytes() }
