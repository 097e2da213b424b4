package imaging

// Luma weights used throughout the paper's pseudo-code. The paper's band
// combine matrix is {0.114, 0.587, 0.299} in B,G,R order, i.e. the standard
// ITU-R BT.601 luma transform.
const (
	lumaR = 0.299
	lumaG = 0.587
	lumaB = 0.114
)

// GrayValue returns the BT.601 luma of an RGB pixel, rounded to the nearest
// integer in [0,255].
func GrayValue(r, g, b uint8) uint8 {
	v := lumaR*float64(r) + lumaG*float64(g) + lumaB*float64(b)
	iv := int(v + 0.5)
	if iv > 255 {
		iv = 255
	}
	return uint8(iv)
}

// ToGray converts the RGB raster to grayscale using the paper's band
// combine weights (0.299, 0.587, 0.114).
func (im *Image) ToGray() *Gray {
	return im.ToGrayInto(NewGray(im.W, im.H))
}

// ToGrayInto converts the RGB raster to grayscale into dst, reusing dst's
// pixel buffer when it is large enough, and returns dst resized to the
// image's dimensions. It is the allocation-free counterpart of ToGray for
// pooled buffers.
//
// This is the hottest per-frame loop after the PR 2/3 plane sharing (one
// conversion per analysed frame, streamed ingest and re-index both pay
// it per source frame), so the inner loop is unrolled four pixels at a
// time over reslices whose lengths the compiler can prove, keeping the
// twelve source reads and four stores bounds-check-free; the remainder
// tail runs the scalar loop. Per-pixel arithmetic is GrayValue either
// way, so the output is bit-identical to the scalar conversion
// (grayValueScalarReference in tests).
func (im *Image) ToGrayInto(dst *Gray) *Gray {
	n := im.W * im.H
	dst.resize(im.W, im.H)
	src := im.Pix[: n*3 : n*3]
	out := dst.Pix[:n:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		s := src[i*3 : i*3+12 : i*3+12]
		o := out[i : i+4 : i+4]
		o[0] = GrayValue(s[0], s[1], s[2])
		o[1] = GrayValue(s[3], s[4], s[5])
		o[2] = GrayValue(s[6], s[7], s[8])
		o[3] = GrayValue(s[9], s[10], s[11])
	}
	for ; i < n; i++ {
		o := src[i*3 : i*3+3 : i*3+3]
		out[i] = GrayValue(o[0], o[1], o[2])
	}
	return dst
}

// RGBToHSV converts an RGB pixel to HSV with h in [0,360), s in [0,1] and
// v in [0,1]. This mirrors java.awt.Color.RGBtoHSB scaled to degrees, which
// is what the paper's auto-correlogram quantiser uses.
func RGBToHSV(r, g, b uint8) (h, s, v float64) {
	rf, gf, bf := float64(r)/255, float64(g)/255, float64(b)/255
	max := rf
	if gf > max {
		max = gf
	}
	if bf > max {
		max = bf
	}
	min := rf
	if gf < min {
		min = gf
	}
	if bf < min {
		min = bf
	}
	v = max
	d := max - min
	if max > 0 {
		s = d / max
	}
	if d == 0 {
		return 0, s, v
	}
	switch max {
	case rf:
		h = 60 * ((gf - bf) / d)
		if h < 0 {
			h += 360
		}
	case gf:
		h = 60*((bf-rf)/d) + 120
	default:
		h = 60*((rf-gf)/d) + 240
	}
	if h >= 360 {
		h -= 360
	}
	return h, s, v
}

// HSVToRGB converts an HSV triple (h in [0,360), s,v in [0,1]) to RGB.
func HSVToRGB(h, s, v float64) (r, g, b uint8) {
	if s <= 0 {
		c := clamp255(v * 255)
		return c, c, c
	}
	for h < 0 {
		h += 360
	}
	for h >= 360 {
		h -= 360
	}
	sector := int(h / 60)
	f := h/60 - float64(sector)
	p := v * (1 - s)
	q := v * (1 - s*f)
	t := v * (1 - s*(1-f))
	var rf, gf, bf float64
	switch sector {
	case 0:
		rf, gf, bf = v, t, p
	case 1:
		rf, gf, bf = q, v, p
	case 2:
		rf, gf, bf = p, v, t
	case 3:
		rf, gf, bf = p, q, v
	case 4:
		rf, gf, bf = t, p, v
	default:
		rf, gf, bf = v, p, q
	}
	return clamp255(rf * 255), clamp255(gf * 255), clamp255(bf * 255)
}

func clamp255(v float64) uint8 {
	iv := int(v + 0.5)
	if iv < 0 {
		return 0
	}
	if iv > 255 {
		return 255
	}
	return uint8(iv)
}
