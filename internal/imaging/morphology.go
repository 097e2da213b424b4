package imaging

// The paper's §4.8 preprocessing uses a 5×5 kernel whose active part is the
// central 3×3 block of ones:
//
//	0 0 0 0 0
//	0 1 1 1 0
//	0 1 1 1 0
//	0 1 1 1 0
//	0 0 0 0 0
//
// Kernel represents such a binary structuring element by its active offsets.
type Kernel struct {
	// Offsets holds (dx, dy) pairs of active kernel cells relative to the
	// anchor pixel.
	Offsets [][2]int
}

// PaperKernel returns the structuring element from §4.8 (a 3×3 box embedded
// in a 5×5 matrix — equivalent to a plain 3×3 box around the anchor).
func PaperKernel() Kernel {
	k := Kernel{}
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			k.Offsets = append(k.Offsets, [2]int{dx, dy})
		}
	}
	return k
}

// Dilate performs grayscale dilation (max filter) over the kernel support.
// Pixels outside the image are ignored.
func (g *Gray) Dilate(k Kernel) *Gray {
	out := NewGray(g.W, g.H)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			var best uint8
			for _, off := range k.Offsets {
				nx, ny := x+off[0], y+off[1]
				if !g.In(nx, ny) {
					continue
				}
				if v := g.Pix[ny*g.W+nx]; v > best {
					best = v
				}
			}
			out.Pix[y*g.W+x] = best
		}
	}
	return out
}

// Erode performs grayscale erosion (min filter) over the kernel support.
// Pixels outside the image are ignored.
func (g *Gray) Erode(k Kernel) *Gray {
	out := NewGray(g.W, g.H)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			best := uint8(255)
			for _, off := range k.Offsets {
				nx, ny := x+off[0], y+off[1]
				if !g.In(nx, ny) {
					continue
				}
				if v := g.Pix[ny*g.W+nx]; v < best {
					best = v
				}
			}
			out.Pix[y*g.W+x] = best
		}
	}
	return out
}

// CloseOpen applies the paper's §4.8 smoothing sequence: dilate, erode,
// erode, dilate (a morphological close followed by an open) with the given
// kernel.
func (g *Gray) CloseOpen(k Kernel) *Gray {
	return g.Dilate(k).Erode(k).Erode(k).Dilate(k)
}

// CloseOpenBox3 is CloseOpen(PaperKernel()) through the separable box
// pass below: identical output, written into dst (returned) with tmp as
// the pass's row scratch. Both are resized as needed and reuse their
// buffers when they have the capacity, so pooled planes make the §4.8
// smoothing allocation-free. dst may be g itself (in-place smoothing);
// tmp must be distinct from both.
func (g *Gray) CloseOpenBox3(dst, tmp *Gray) *Gray {
	dst.resize(g.W, g.H)
	tmp.resize(g.W, g.H)
	box3(dst.Pix, tmp.Pix, g.Pix, g.W, g.H, boxDilate)
	box3(dst.Pix, tmp.Pix, dst.Pix, g.W, g.H, boxErode)
	box3(dst.Pix, tmp.Pix, dst.Pix, g.W, g.H, boxErode)
	box3(dst.Pix, tmp.Pix, dst.Pix, g.W, g.H, boxDilate)
	return dst
}

// BoxDilate3 performs dilation with the 3×3 box kernel (PaperKernel) as
// two separable passes: a horizontal 3-tap max, then a vertical 3-tap
// max. max is associative and commutative, so the result is identical to
// Dilate(PaperKernel()) — including at the borders, where out-of-image
// taps are ignored — at a third of the taps and with no per-tap bounds
// checks.
func (g *Gray) BoxDilate3() *Gray {
	return g.boxFilter3(boxDilate)
}

// BoxErode3 performs erosion with the 3×3 box kernel as two separable
// 3-tap min passes; identical to Erode(PaperKernel()).
func (g *Gray) BoxErode3() *Gray {
	return g.boxFilter3(boxErode)
}

// boxFilter3 is one box3 pass into a fresh raster.
func (g *Gray) boxFilter3(m uint8) *Gray {
	out := NewGray(g.W, g.H)
	box3(out.Pix, make([]uint8, len(g.Pix)), g.Pix, g.W, g.H, m)
	return out
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
