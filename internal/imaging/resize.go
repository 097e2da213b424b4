package imaging

import "sync/atomic"

// rescaleCalls counts RGB rescales process-wide: (*Image).Rescale and
// RescaleInto, and Source.RescaleInto, which builds the same raster
// straight from a decoder's planes. It backs RescaleCalls, the test hook
// that verifies the key-frame pipeline builds one analysis raster per key
// frame and none for the frames selection drops.
var rescaleCalls atomic.Int64

// RescaleCalls reports how many RGB rescales have run in this process.
// Tests subtract two readings to count the rescales a code path performs;
// the benchmark divides the same difference by frames ingested.
func RescaleCalls() int64 { return rescaleCalls.Load() }

// maxStackCols is the widest destination whose nearest-neighbour column
// table lives on the stack; wider destinations allocate theirs.
const maxStackCols = 1024

// nearestCols returns the source column of every destination column of a
// sw → w nearest-neighbour rescale, cols[x] = x·sw/w, in buf when it is
// long enough. Hoisting the divides out of the pixel loop is what makes a
// rescale a table walk.
func nearestCols(buf []int32, sw, w int) []int32 {
	var cols []int32
	if w <= len(buf) {
		cols = buf[:w]
	} else {
		cols = make([]int32, w)
	}
	for x := range cols {
		cols[x] = int32(x * sw / w)
	}
	return cols
}

// Rescale resizes the image to w×h using nearest-neighbour interpolation,
// the paper's InterpolationNearest. It panics if w or h is not positive.
func (im *Image) Rescale(w, h int) *Image {
	return im.RescaleInto(&Image{}, w, h)
}

// RescaleInto is Rescale writing into dst: dst's pixel buffer is reused
// when it has the capacity, so a pooled destination makes steady-state
// rescaling allocation-free (pooled features.Planes keep their analysis
// raster this way). Every pixel of dst is overwritten — a
// recycled buffer cannot leak stale content. It returns dst and counts as
// one rescale in RescaleCalls, exactly like Rescale.
//
// Destination pixel (x, y) is source pixel (x·W/w, y·H/h). The column
// map is computed once per call, and a destination row whose source row
// repeats the previous one (every upscale) is a copy of that row.
func (im *Image) RescaleInto(dst *Image, w, h int) *Image {
	dst.beginRescale(w, h)
	if im.W == 0 || im.H == 0 {
		clear(dst.Pix)
		return dst
	}
	var buf [maxStackCols]int32
	cols := nearestCols(buf[:], im.W, w)
	stride := w * 3
	prev := -1
	for y := 0; y < h; y++ {
		out := dst.Pix[y*stride : (y+1)*stride]
		sy := y * im.H / h
		if sy == prev {
			copy(out, dst.Pix[(y-1)*stride:y*stride])
			continue
		}
		prev = sy
		row := im.Pix[sy*im.W*3 : (sy+1)*im.W*3]
		for x, sx := range cols {
			s := row[3*int(sx) : 3*int(sx)+3]
			d := out[3*x : 3*x+3]
			d[0], d[1], d[2] = s[0], s[1], s[2]
		}
	}
	return dst
}

// beginRescale counts one rescale and sizes im as the w×h destination,
// reusing its buffer's capacity; the contents are left for the caller to
// overwrite.
func (im *Image) beginRescale(w, h int) {
	if w <= 0 || h <= 0 {
		panic("imaging: Rescale requires positive dimensions")
	}
	rescaleCalls.Add(1)
	im.W, im.H = w, h
	n := w * h * 3
	if cap(im.Pix) < n {
		im.Pix = make([]uint8, n)
	} else {
		im.Pix = im.Pix[:n]
	}
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
	var buf [maxStackCols]int32
	cols := nearestCols(buf[:], g.W, w)
	prev := -1
	for y := 0; y < h; y++ {
		out := dst.Pix[y*w : (y+1)*w]
		sy := y * g.H / h
		if sy == prev {
			copy(out, dst.Pix[(y-1)*w:y*w])
			continue
		}
		prev = sy
		row := g.Pix[sy*g.W : (sy+1)*g.W]
		for x, sx := range cols {
			out[x] = row[sx]
		}
	}
	return dst
}
