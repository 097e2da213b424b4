package imaging

import "sync/atomic"

// rescaleCalls counts (*Image).Rescale invocations process-wide. It backs
// RescaleCalls, the test hook that verifies the shared analysis-plane
// pipeline rescales each ingested key frame exactly once.
var rescaleCalls atomic.Int64

// RescaleCalls reports how many times (*Image).Rescale has run in this
// process. Tests subtract two readings to count the rescales a code path
// performs; the counter has no other consumers.
func RescaleCalls() int64 { return rescaleCalls.Load() }

// Rescale resizes the image to w×h using nearest-neighbour interpolation,
// the paper's InterpolationNearest. It panics if w or h is not positive.
func (im *Image) Rescale(w, h int) *Image {
	return im.RescaleInto(&Image{}, w, h)
}

// RescaleInto is Rescale writing into dst: dst's pixel buffer is reused
// when it has the capacity, so a pooled destination makes steady-state
// rescaling allocation-free (the ingest and re-index pipelines recycle
// analysis rasters this way). Every pixel of dst is overwritten — a
// recycled buffer cannot leak stale content. It returns dst and counts as
// one rescale in RescaleCalls, exactly like Rescale.
func (im *Image) RescaleInto(dst *Image, w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic("imaging: Rescale requires positive dimensions")
	}
	rescaleCalls.Add(1)
	dst.W, dst.H = w, h
	n := w * h * 3
	if cap(dst.Pix) < n {
		dst.Pix = make([]uint8, n)
	} else {
		dst.Pix = dst.Pix[:n]
	}
	if im.W == 0 || im.H == 0 {
		for i := range dst.Pix {
			dst.Pix[i] = 0
		}
		return dst
	}
	for y := 0; y < h; y++ {
		sy := y * im.H / h
		for x := 0; x < w; x++ {
			sx := x * im.W / w
			si := (sy*im.W + sx) * 3
			di := (y*w + x) * 3
			dst.Pix[di] = im.Pix[si]
			dst.Pix[di+1] = im.Pix[si+1]
			dst.Pix[di+2] = im.Pix[si+2]
		}
	}
	return dst
}

// RescaleBilinear resizes the image to w×h with bilinear interpolation. It
// is used where smooth downsampling matters (e.g. thumbnails in the web UI).
func (im *Image) RescaleBilinear(w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic("imaging: RescaleBilinear requires positive dimensions")
	}
	out := New(w, h)
	if im.W == 0 || im.H == 0 {
		return out
	}
	if im.W == 1 && im.H == 1 {
		r, g, b := im.At(0, 0)
		out.Fill(r, g, b)
		return out
	}
	xr := float64(im.W-1) / float64(maxInt(w-1, 1))
	yr := float64(im.H-1) / float64(maxInt(h-1, 1))
	for y := 0; y < h; y++ {
		sy := float64(y) * yr
		y0 := int(sy)
		y1 := y0 + 1
		if y1 >= im.H {
			y1 = im.H - 1
		}
		fy := sy - float64(y0)
		for x := 0; x < w; x++ {
			sx := float64(x) * xr
			x0 := int(sx)
			x1 := x0 + 1
			if x1 >= im.W {
				x1 = im.W - 1
			}
			fx := sx - float64(x0)
			for c := 0; c < 3; c++ {
				p00 := float64(im.Pix[(y0*im.W+x0)*3+c])
				p01 := float64(im.Pix[(y0*im.W+x1)*3+c])
				p10 := float64(im.Pix[(y1*im.W+x0)*3+c])
				p11 := float64(im.Pix[(y1*im.W+x1)*3+c])
				top := p00 + (p01-p00)*fx
				bot := p10 + (p11-p10)*fx
				out.Pix[(y*w+x)*3+c] = clamp255(top + (bot-top)*fy)
			}
		}
	}
	return out
}

// Rescale resizes a grayscale raster with nearest-neighbour sampling.
func (g *Gray) Rescale(w, h int) *Gray {
	return g.RescaleInto(&Gray{}, w, h)
}

// RescaleInto is Rescale writing into dst, the Gray counterpart of
// (*Image).RescaleInto: dst's pixel buffer is reused when it has the
// capacity, every pixel of dst is overwritten, and dst is returned. Gray
// rescales are not counted in RescaleCalls. dst must not be g.
func (g *Gray) RescaleInto(dst *Gray, w, h int) *Gray {
	if w <= 0 || h <= 0 {
		panic("imaging: Rescale requires positive dimensions")
	}
	dst.resize(w, h)
	if g.W == 0 || g.H == 0 {
		clear(dst.Pix)
		return dst
	}
	for y := 0; y < h; y++ {
		row := g.Pix[(y*g.H/h)*g.W:][:g.W]
		out := dst.Pix[y*w : (y+1)*w]
		for x := range out {
			out[x] = row[x*g.W/w]
		}
	}
	return dst
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
