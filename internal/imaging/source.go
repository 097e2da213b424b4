package imaging

import (
	"image"
	"image/color"
)

// Source is a decoded frame still in the layout its decoder produced: the
// JPEG decoder's Y'CbCr planes, or an RGB raster. §4.1 selection reads
// every frame of a video, but only key frames need an RGB analysis raster,
// so a Source converts only the pixels a caller samples. Every pixel it
// yields is the one FromImage would produce — the same color.YCbCrToRGB
// on the same samples — so WindowSum and RescaleInto are bit-identical to
// running FromImage first.
//
// The zero Source is an empty (0×0) frame.
type Source struct {
	ycc *image.YCbCr // decoder planes; nil for an RGB source
	hs  uint         // horizontal chroma subsampling shift of ycc
	rgb *Image
}

// sourceOf wraps a decoder's output. Y'CbCr planes are kept as they are;
// any other image (a grayscale or CMYK JPEG) is converted once with
// FromImage.
func sourceOf(src image.Image) Source {
	if s, ok := src.(*image.YCbCr); ok {
		if hs, ok := chromaShift(s); ok {
			return Source{ycc: s, hs: hs}
		}
	}
	return FromImage(src).Source()
}

// Source returns the raster as a Source; the Source reads im's pixels in
// place.
func (im *Image) Source() Source {
	if im == nil {
		return Source{}
	}
	return Source{rgb: im}
}

// chromaShift reports the horizontal chroma shift the row-at-a-time
// conversions index with (Source.chroma): x>>hs − Min.X>>hs equals
// (*image.YCbCr).COffset's x/k − Min.X/k as long as no x is negative. The
// vertical subsampling is COffset's business (it is called once per row).
func chromaShift(s *image.YCbCr) (uint, bool) {
	if s.Rect.Min.X < 0 {
		return 0, false
	}
	switch s.SubsampleRatio {
	case image.YCbCrSubsampleRatio422, image.YCbCrSubsampleRatio420:
		return 1, true
	case image.YCbCrSubsampleRatio411, image.YCbCrSubsampleRatio410:
		return 2, true
	}
	return 0, true // 4:4:4 and 4:4:0, and COffset's default
}

// size reports the frame's dimensions.
func (s Source) size() (w, h int) {
	switch {
	case s.ycc != nil:
		return s.ycc.Rect.Dx(), s.ycc.Rect.Dy()
	case s.rgb != nil:
		return s.rgb.W, s.rgb.H
	}
	return 0, 0
}

// RGB returns the raster an RGB source reads, or nil for decoder planes.
func (s Source) RGB() *Image { return s.rgb }

// Image returns the frame as an RGB raster: the raster itself for an RGB
// source, FromImage of the planes otherwise.
func (s Source) Image() *Image {
	if s.ycc != nil {
		return FromImage(s.ycc)
	}
	if s.rgb == nil {
		return New(0, 0)
	}
	return s.rgb
}

// yccRow returns the luma row and the chroma rows of source row sy: luma
// indexed by the column counted from the frame's left edge, chroma by
// Source.chroma of that column.
func (s Source) yccRow(sy int) (y, cb, cr []uint8) {
	p := s.ycc
	x0, y0 := p.Rect.Min.X, p.Rect.Min.Y+sy
	ci := p.COffset(x0, y0)
	return p.Y[p.YOffset(x0, y0):], p.Cb[ci:], p.Cr[ci:]
}

// chroma maps a column, counted from the frame's left edge, to its index
// in yccRow's chroma rows.
func (s Source) chroma(x int) int {
	x0 := s.ycc.Rect.Min.X
	return (x0+x)>>s.hs - x0>>s.hs
}

// RescaleInto is FromImage followed by (*Image).RescaleInto, in one pass
// that converts each sampled source pixel once and nothing else: a
// downscale converts w·h pixels instead of the whole frame, an upscale
// converts each source pixel once and copies its repeats. dst is reused
// as in (*Image).RescaleInto and the call counts as one rescale.
func (s Source) RescaleInto(dst *Image, w, h int) *Image {
	if s.ycc == nil {
		return s.Image().RescaleInto(dst, w, h)
	}
	dst.beginRescale(w, h)
	sw, sh := s.size()
	if sw == 0 || sh == 0 {
		clear(dst.Pix)
		return dst
	}
	var buf [maxStackCols]int32
	cols := nearestCols(buf[:], sw, w)
	stride := w * 3
	prev := -1
	for y := 0; y < h; y++ {
		out := dst.Pix[y*stride : (y+1)*stride]
		sy := y * sh / h
		if sy == prev {
			copy(out, dst.Pix[(y-1)*stride:y*stride])
			continue
		}
		prev = sy
		yr, cb, cr := s.yccRow(sy)
		last := int32(-1)
		var r, g, bl uint8
		for x, sx := range cols {
			if sx != last {
				last = sx
				c := s.chroma(int(sx))
				r, g, bl = color.YCbCrToRGB(yr[sx], cb[c], cr[c])
			}
			d := out[3*x : 3*x+3]
			d[0], d[1], d[2] = r, g, bl
		}
	}
	return dst
}

// tap is one source column of a window: its index and how many of the
// window's destination columns map to it.
type tap struct{ at, n int32 }

// WindowSum returns the per-channel sum of the pixels inside r on the w×h
// nearest-neighbour rescale of s — the sum over r of
// s.RescaleInto(dst, w, h) — without building that raster. The rescale is
// separable: destination (x, y) reads source (x·W/w, y·H/h), so the window
// sum is a sum over source pixels weighted by (destination columns mapping
// to the pixel's column) × (destination rows mapping to its row). Each
// source pixel in the window is read, and converted, once. r is clipped to
// the w×h raster; sums are exact integers.
func (s Source) WindowSum(w, h int, r image.Rectangle) (sum [3]int) {
	r = r.Intersect(image.Rect(0, 0, w, h))
	sw, sh := s.size()
	if sw == 0 || sh == 0 || r.Empty() {
		return sum
	}
	var buf [64]tap
	cols := buf[:0]
	for x := r.Min.X; x < r.Max.X; x++ {
		sx := int32(x * sw / w)
		if n := len(cols); n > 0 && cols[n-1].at == sx {
			cols[n-1].n++
		} else {
			cols = append(cols, tap{sx, 1})
		}
	}
	for y := r.Min.Y; y < r.Max.Y; {
		sy := y * sh / h
		n := 1
		for y+n < r.Max.Y && (y+n)*sh/h == sy {
			n++
		}
		y += n
		row := s.rowSum(sy, cols)
		sum[0] += n * row[0]
		sum[1] += n * row[1]
		sum[2] += n * row[2]
	}
	return sum
}

// rowSum is WindowSum's weighted sum over one source row.
func (s Source) rowSum(sy int, cols []tap) (sum [3]int) {
	if s.ycc == nil {
		row := s.rgb.Pix[sy*s.rgb.W*3 : (sy+1)*s.rgb.W*3]
		for _, t := range cols {
			p, n := row[3*int(t.at):3*int(t.at)+3], int(t.n)
			sum[0] += n * int(p[0])
			sum[1] += n * int(p[1])
			sum[2] += n * int(p[2])
		}
		return sum
	}
	yr, cb, cr := s.yccRow(sy)
	for _, t := range cols {
		c := s.chroma(int(t.at))
		r, g, b := color.YCbCrToRGB(yr[t.at], cb[c], cr[c])
		n := int(t.n)
		sum[0] += n * int(r)
		sum[1] += n * int(g)
		sum[2] += n * int(b)
	}
	return sum
}
