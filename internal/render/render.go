// Package render is the receiver's final pipeline stage (§A.1): it projects
// a reconstructed point cloud into a 2D image from the viewer's pose with a
// z-buffer and distance-scaled point splats. LiVo must render within the
// motion-to-photon budget (<20 ms, §4.4); Splat on a voxelized cloud meets
// that comfortably on a CPU at headset-like resolutions.
package render

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"

	"livo/internal/geom"
	"livo/internal/pointcloud"
)

// Options configure a render pass.
type Options struct {
	Width, Height int
	// View is the viewer's frustum parameters; FovY/Aspect drive the
	// projection, Near/Far clip.
	View geom.ViewParams
	// PointSize scales splat radius: a point at distance z covers
	// approximately PointSize/z pixels (default 2.5, roughly the voxel
	// footprint of a §A.1-voxelized cloud).
	PointSize float64
	// Background is the clear color (default dark gray).
	Background color.RGBA
}

func (o Options) withDefaults() Options {
	if o.Width <= 0 {
		o.Width = 640
	}
	if o.Height <= 0 {
		o.Height = 480
	}
	if o.View.FovY == 0 {
		o.View = geom.DefaultViewParams()
		o.View.Aspect = float64(o.Width) / float64(o.Height)
	}
	if o.PointSize <= 0 {
		o.PointSize = 2.5
	}
	if o.Background == (color.RGBA{}) {
		o.Background = color.RGBA{R: 24, G: 24, B: 28, A: 255}
	}
	return o
}

// Image is a rendered frame with its depth buffer.
type Image struct {
	RGBA *image.RGBA
	// Z holds the camera-space depth per pixel (+Inf = background).
	Z []float64
	// Drawn is the number of points that landed inside the viewport.
	Drawn int
}

// Splat renders the cloud from the viewer pose. Each point that lands in
// the viewport covers a square of 2k+1 pixels a side centred on its
// projection, k = round(max(PointSize/z, 0.5)); a pixel keeps the nearest
// point, and of points at equal depth the first in cloud order. A point
// with a NaN or infinite coordinate is never drawn.
func Splat(cloud *pointcloud.Cloud, viewer geom.Pose, opts Options) *Image {
	opts = opts.withDefaults()
	w, h := opts.Width, opts.Height
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	z := make([]float64, w*h)
	pix := img.Pix // Stride is 4·w: pixel idx is pix[4·idx : 4·idx+4]
	bg := opts.Background
	pix[0], pix[1], pix[2], pix[3] = bg.R, bg.G, bg.B, bg.A
	repeat(pix, 4)
	z[0] = math.Inf(1)
	repeat(z, 1)

	// Projection constants: focal length in pixels from the vertical FoV.
	fy := float64(h) / 2 / math.Tan(opts.View.FovY/2)
	fx := fy // square pixels; aspect handled by the viewport itself
	cx, cy := float64(w)/2, float64(h)/2
	worldToCam := viewer.InverseMat4()

	out := &Image{RGBA: img, Z: z}
	for i, p := range cloud.Positions {
		lc := worldToCam.TransformPoint(p)
		// Accept forms: every comparison with NaN is false, so a
		// non-finite point fails here instead of landing on pixel (0,0).
		if !(lc.Z >= opts.View.Near && lc.Z <= opts.View.Far) {
			continue
		}
		u := lc.X/lc.Z*fx + cx
		v := lc.Y/lc.Z*fy + cy
		if !(u >= 0 && u < float64(w) && v >= 0 && v < float64(h)) {
			continue
		}
		out.Drawn++
		r := opts.PointSize / lc.Z
		if r < 0.5 {
			r = 0.5
		}
		ir := int(r + 0.5)
		ui, vi := int(u), int(v)
		x0, x1 := max(ui-ir, 0), min(ui+ir, w-1)
		y0, y1 := max(vi-ir, 0), min(vi+ir, h-1)
		if x0 > x1 { // only when int(r+0.5) overflowed: draw nothing
			continue
		}
		col := cloud.Colors[i]
		for y := y0; y <= y1; y++ {
			lo, hi := y*w+x0, y*w+x1+1
			zs, ps := z[lo:hi], pix[4*lo:4*hi]
			for j, d := range zs {
				if lc.Z >= d {
					continue
				}
				zs[j] = lc.Z
				px := ps[4*j : 4*j+4 : 4*j+4]
				px[0], px[1], px[2], px[3] = col[0], col[1], col[2], 255
			}
		}
	}
	return out
}

// repeat fills s with copies of its first n elements, doubling the copied
// span each pass.
func repeat[E any](s []E, n int) {
	for ; n < len(s); n *= 2 {
		copy(s[n:], s[:n])
	}
}

// Coverage returns the fraction of pixels covered by points (not
// background) — a cheap proxy for how much of the viewport the scene fills.
func (im *Image) Coverage() float64 {
	covered := 0
	for _, d := range im.Z {
		if !math.IsInf(d, 1) {
			covered++
		}
	}
	return float64(covered) / float64(len(im.Z))
}

// WritePNG encodes the rendered image as PNG.
func (im *Image) WritePNG(w io.Writer) error {
	if err := png.Encode(w, im.RGBA); err != nil {
		return fmt.Errorf("render: png: %w", err)
	}
	return nil
}
