package depth

import "livo/internal/frame"

// Depth super-resolution: footnote 2 of the paper notes the alternative
// design of transmitting color at full resolution and upsampling depth at
// the receiver, rejected because it "can incur lower quality". These
// helpers implement that alternative so the trade-off can be measured
// (TestSuperResolutionLosesToNative).

// SuperResolve2x upsamples a depth image 2x with edge-aware bilinear
// interpolation: interpolation only happens between samples on the same
// surface (within jumpMM); across discontinuities the nearest sample wins.
func SuperResolve2x(im *frame.DepthImage, outW, outH int, jumpMM uint16) *frame.DepthImage {
	out := frame.NewDepthImage(outW, outH)
	for y := 0; y < outH; y++ {
		for x := 0; x < outW; x++ {
			// Source coordinates in the low-res grid.
			fx := float64(x) / 2
			fy := float64(y) / 2
			x0, y0 := int(fx), int(fy)
			x1, y1 := x0+1, y0+1
			if x0 >= im.W {
				x0 = im.W - 1
			}
			if y0 >= im.H {
				y0 = im.H - 1
			}
			if x1 >= im.W {
				x1 = x0
			}
			if y1 >= im.H {
				y1 = y0
			}
			v00 := im.At(x0, y0)
			v10 := im.At(x1, y0)
			v01 := im.At(x0, y1)
			v11 := im.At(x1, y1)
			if v00 == 0 {
				continue // no measurement to extend
			}
			mn, mx := v00, v00
			valid := true
			for _, v := range []uint16{v10, v01, v11} {
				if v == 0 {
					valid = false
					break
				}
				if v < mn {
					mn = v
				}
				if v > mx {
					mx = v
				}
			}
			if !valid || mx-mn > jumpMM {
				out.Set(x, y, v00) // discontinuity or hole: nearest
				continue
			}
			wx := fx - float64(x0)
			wy := fy - float64(y0)
			top := float64(v00)*(1-wx) + float64(v10)*wx
			bot := float64(v01)*(1-wx) + float64(v11)*wx
			out.Set(x, y, uint16(top*(1-wy)+bot*wy+0.5))
		}
	}
	return out
}
