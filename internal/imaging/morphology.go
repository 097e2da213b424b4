package imaging

// CloseOpenBox3 applies the paper's §4.8 smoothing: dilate, erode,
// erode, dilate (a close, then an open) with its 5×5 kernel, whose active
// part is the central 3×3 box. Each step is a separable box pass, a
// horizontal 3-tap max (or min) then a vertical one; max and min are
// associative and commutative, so the output equals the generic kernel
// walk's, borders included, where out-of-image taps are ignored
// (TestBoxMorphologyMatchesGeneric). It writes into dst (returned) with
// tmp as the pass's row scratch. Both are resized as needed and reuse
// their buffers when they have the capacity, so pooled planes make the
// §4.8 smoothing allocation-free. dst may be g itself (in-place
// smoothing); tmp must be distinct from both.
func (g *Gray) CloseOpenBox3(dst, tmp *Gray) *Gray {
	dst.resize(g.W, g.H)
	tmp.resize(g.W, g.H)
	box3(dst.Pix, tmp.Pix, g.Pix, g.W, g.H, boxDilate)
	box3(dst.Pix, tmp.Pix, dst.Pix, g.W, g.H, boxErode)
	box3(dst.Pix, tmp.Pix, dst.Pix, g.W, g.H, boxErode)
	box3(dst.Pix, tmp.Pix, dst.Pix, g.W, g.H, boxDilate)
	return dst
}

// resize sets the raster's dimensions, reusing the pixel buffer when it
// has the capacity. The content is unspecified.
func (g *Gray) resize(w, h int) {
	g.W, g.H = w, h
	if n := w * h; cap(g.Pix) < n {
		g.Pix = make([]uint8, n)
	} else {
		g.Pix = g.Pix[:n]
	}
}

// Complement masks selecting box3's fold. On uint8, min(a, b) ==
// ^max(^a, ^b), so erosion is dilation of the complemented raster: one
// branch-free max pass serves both, on any gray raster.
const (
	boxDilate uint8 = 0x00
	boxErode  uint8 = 0xFF
)

// box3 applies the separable 3×3 box fold selected by the complement
// mask m (boxDilate: max, boxErode: min) to the w×h raster src, ignoring
// out-of-image taps: a horizontal 3-tap pass src → tmp, then a vertical
// 3-tap pass tmp → dst. dst may alias src (src is fully consumed before
// dst is written); tmp may alias neither.
//
//cbvrvet:noalloc
func box3(dst, tmp, src []uint8, w, h int, m uint8) {
	if w == 0 || h == 0 {
		return
	}
	for y := 0; y < h; y++ {
		row := src[y*w : (y+1)*w]
		out := tmp[y*w : (y+1)*w]
		if w == 1 {
			out[0] = row[0]
			continue
		}
		out[0] = m ^ max(m^row[0], m^row[1])
		// Three views of the row shifted by one, resliced to the interior's
		// length so the taps carry no bounds checks.
		mid := out[1 : w-1]
		l, c, r := row[:len(mid)], row[1:][:len(mid)], row[2:][:len(mid)]
		for x := range mid {
			mid[x] = m ^ max(m^l[x], m^c[x], m^r[x])
		}
		out[w-1] = m ^ max(m^row[w-2], m^row[w-1])
	}
	if h == 1 {
		copy(dst[:w], tmp[:w])
		return
	}
	vfold2(dst[:w], tmp[:w], tmp[w:2*w], m)
	for y := 1; y < h-1; y++ {
		above := tmp[(y-1)*w : y*w]
		cur := tmp[y*w : (y+1)*w]
		below := tmp[(y+1)*w : (y+2)*w]
		out := dst[y*w : (y+1)*w]
		for x, c := range cur {
			out[x] = m ^ max(m^above[x], m^c, m^below[x])
		}
	}
	vfold2(dst[(h-1)*w:h*w], tmp[(h-2)*w:(h-1)*w], tmp[(h-1)*w:h*w], m)
}

// vfold2 is box3's two-tap vertical fold for the first and last rows.
//
//cbvrvet:noalloc
func vfold2(out, a, b []uint8, m uint8) {
	for x, c := range a {
		out[x] = m ^ max(m^c, m^b[x])
	}
}
