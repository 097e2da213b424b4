package synthvid

import (
	"math"
	"math/rand"

	"cbvr/internal/imaging"
)

// rgb is a convenience colour triple for the scene painters.
type rgb struct{ r, g, b uint8 }

func pick(rng *rand.Rand, colors []rgb) rgb {
	return colors[rng.Intn(len(colors))]
}

// fillRect paints the half-open rectangle [x0,x1)×[y0,y1), clipped to the
// image.
func fillRect(im *imaging.Image, x0, y0, x1, y1 int, r, g, b uint8) {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 > im.W {
		x1 = im.W
	}
	if y1 > im.H {
		y1 = im.H
	}
	for y := y0; y < y1; y++ {
		i := (y*im.W + x0) * 3
		for x := x0; x < x1; x++ {
			im.Pix[i], im.Pix[i+1], im.Pix[i+2] = r, g, b
			i += 3
		}
	}
}

// fillCircle paints a filled disc centred at (cx, cy), clipped to the image.
func fillCircle(im *imaging.Image, cx, cy, rad int, r, g, b uint8) {
	if rad <= 0 {
		return
	}
	r2 := rad * rad
	for y := cy - rad; y <= cy+rad; y++ {
		if y < 0 || y >= im.H {
			continue
		}
		dy := y - cy
		for x := cx - rad; x <= cx+rad; x++ {
			if x < 0 || x >= im.W {
				continue
			}
			dx := x - cx
			if dx*dx+dy*dy <= r2 {
				im.Set(x, y, r, g, b)
			}
		}
	}
}

// ringCircle paints a circle outline of the given thickness.
func ringCircle(im *imaging.Image, cx, cy, rad, thick int, r, g, b uint8) {
	if rad <= 0 || thick <= 0 {
		return
	}
	outer := rad * rad
	in := rad - thick
	if in < 0 {
		in = 0
	}
	inner := in * in
	for y := cy - rad; y <= cy+rad; y++ {
		if y < 0 || y >= im.H {
			continue
		}
		dy := y - cy
		for x := cx - rad; x <= cx+rad; x++ {
			if x < 0 || x >= im.W {
				continue
			}
			dx := x - cx
			d := dx*dx + dy*dy
			if d <= outer && d >= inner {
				im.Set(x, y, r, g, b)
			}
		}
	}
}

// vGradient paints a vertical gradient from top colour to bottom colour
// over the whole image.
func vGradient(im *imaging.Image, top, bottom rgb) {
	for y := 0; y < im.H; y++ {
		f := 0.0
		if im.H > 1 {
			f = float64(y) / float64(im.H-1)
		}
		r := lerp8(top.r, bottom.r, f)
		g := lerp8(top.g, bottom.g, f)
		b := lerp8(top.b, bottom.b, f)
		i := y * im.W * 3
		for x := 0; x < im.W; x++ {
			im.Pix[i], im.Pix[i+1], im.Pix[i+2] = r, g, b
			i += 3
		}
	}
}

// hStripe paints a horizontal band [y0,y1).
func hStripe(im *imaging.Image, y0, y1 int, c rgb) {
	fillRect(im, 0, y0, im.W, y1, c.r, c.g, c.b)
}

func lerp8(a, b uint8, f float64) uint8 {
	return uint8(float64(a) + (float64(b)-float64(a))*f + 0.5)
}

// valueNoise is a seeded lattice value-noise field used for natural
// textures (grass, foliage, film grain structure).
type valueNoise struct {
	perm [256]uint8
}

func newValueNoise(rng *rand.Rand) *valueNoise {
	n := &valueNoise{}
	for i := range n.perm {
		n.perm[i] = uint8(i)
	}
	rng.Shuffle(len(n.perm), func(i, j int) {
		n.perm[i], n.perm[j] = n.perm[j], n.perm[i]
	})
	return n
}

func (n *valueNoise) lattice(x, y int) float64 {
	h := n.perm[(int(n.perm[x&255])+y)&255]
	return float64(h) / 255
}

func smoothstep(t float64) float64 { return t * t * (3 - 2*t) }

// At samples the noise field at (x, y) with the given feature scale;
// result is in [0,1].
func (n *valueNoise) At(x, y, scale float64) float64 {
	x, y = x/scale, y/scale
	x0, y0 := int(math.Floor(x)), int(math.Floor(y))
	fx, fy := x-float64(x0), y-float64(y0)
	v00 := n.lattice(x0&255, y0&255)
	v10 := n.lattice((x0+1)&255, y0&255)
	v01 := n.lattice(x0&255, (y0+1)&255)
	v11 := n.lattice((x0+1)&255, (y0+1)&255)
	sx, sy := smoothstep(fx), smoothstep(fy)
	top := v00 + (v10-v00)*sx
	bot := v01 + (v11-v01)*sx
	return top + (bot-top)*sy
}
