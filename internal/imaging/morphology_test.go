package imaging

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// The generic kernel-walk morphology and binarisation CloseOpenBox3 and
// the region extractor are pinned to.
//
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

// Binarize maps every pixel to 0 (<= t) or 255 (> t).
func (g *Gray) Binarize(t int) *Gray {
	out := NewGray(g.W, g.H)
	for i, v := range g.Pix {
		if int(v) > t {
			out.Pix[i] = 255
		}
	}
	return out
}

// TestBoxMorphologyMatchesGeneric pins the separable 3×3 box pass to the
// generic kernel-walk morphology on random rasters (binary and full
// grayscale) across sizes that stress the border handling, and on
// non-binary gray for every w, h ∈ {1, 2, 3, 7} — each combination of
// the pass's one-, two- and three-tap row and column cases.
func TestBoxMorphologyMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	k := PaperKernel()
	type shape struct {
		w, h   int
		binary bool
	}
	var shapes []shape
	for trial := 0; trial < 60; trial++ {
		shapes = append(shapes, shape{1 + rng.Intn(20), 1 + rng.Intn(20), trial%2 == 0})
	}
	for _, w := range []int{1, 2, 3, 7} {
		for _, h := range []int{1, 2, 3, 7} {
			shapes = append(shapes, shape{w, h, false})
		}
	}
	// Pooled-style destination and scratch, reused (and resized) across
	// every shape the way the region extractor reuses them across frames.
	dst, tmp := &Gray{}, &Gray{}
	for trial, sh := range shapes {
		w, h := sh.w, sh.h
		g := NewGray(w, h)
		if sh.binary {
			for i := range g.Pix {
				if rng.Intn(2) == 1 {
					g.Pix[i] = 255
				}
			}
		} else {
			rng.Read(g.Pix)
		}
		inPlace := g.Clone()
		for name, pair := range map[string][2]*Gray{
			"dilate":             {g.Dilate(k), g.BoxDilate3()},
			"erode":              {g.Erode(k), g.BoxErode3()},
			"closeopen":          {g.CloseOpen(k), g.CloseOpenBox3(dst, tmp)},
			"closeopen in place": {g.CloseOpen(k), inPlace.CloseOpenBox3(inPlace, tmp)},
		} {
			want, got := pair[0], pair[1]
			if got.W != w || got.H != h || len(got.Pix) != w*h {
				t.Fatalf("trial %d (%dx%d) %s: result is %dx%d with %d pixels", trial, w, h, name, got.W, got.H, len(got.Pix))
			}
			for i := range want.Pix {
				if want.Pix[i] != got.Pix[i] {
					t.Fatalf("trial %d (%dx%d) %s: pixel %d: generic %d, box %d",
						trial, w, h, name, i, want.Pix[i], got.Pix[i])
				}
			}
		}
	}
}

// benchBinary is a binarised 300×300 analysis-sized raster: blocks with
// salt noise, the shape of input the §4.8 smoothing sees per frame.
func benchBinary() *Gray {
	rng := rand.New(rand.NewSource(5))
	g := NewGray(300, 300)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			if (x/40+y/30)%2 == 0 != (rng.Intn(50) == 0) {
				g.Pix[y*g.W+x] = 255
			}
		}
	}
	return g
}

// BenchmarkCloseOpenBox3 is the production §4.8 smoothing: four masked
// separable box passes into warm planes.
func BenchmarkCloseOpenBox3(b *testing.B) {
	g := benchBinary()
	dst, tmp := &Gray{}, &Gray{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.CloseOpenBox3(dst, tmp)
	}
}

// BenchmarkCloseOpenReference is the generic kernel-walk baseline, the
// "before" of BenchmarkCloseOpenBox3.
func BenchmarkCloseOpenReference(b *testing.B) {
	g := benchBinary()
	k := PaperKernel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.CloseOpen(k)
	}
}

func TestMorphologyDilateErode(t *testing.T) {
	g := NewGray(7, 7)
	g.Set(3, 3, 255)
	k := PaperKernel()
	d := g.Dilate(k)
	// The 3×3 neighbourhood must light up.
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if d.At(3+dx, 3+dy) != 255 {
				t.Fatalf("dilate missed (%d,%d)", 3+dx, 3+dy)
			}
		}
	}
	if d.At(0, 0) != 0 {
		t.Error("dilate leaked to corner")
	}
	// Erosion of the dilation of a single pixel returns the single pixel.
	e := d.Erode(k)
	if e.At(3, 3) != 255 {
		t.Error("erode(dilate(x)) lost centre")
	}
	if e.At(2, 2) != 0 {
		t.Error("erode left halo")
	}
}

// Morphology duality property: erode(¬x) == ¬dilate(x) for binary images.
func TestMorphologyDualityProperty(t *testing.T) {
	k := PaperKernel()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewGray(16, 16)
		for i := range g.Pix {
			if rng.Intn(2) == 1 {
				g.Pix[i] = 255
			}
		}
		inv := g.Clone()
		for i := range inv.Pix {
			inv.Pix[i] = 255 - inv.Pix[i]
		}
		left := inv.Erode(k)
		right := g.Dilate(k)
		for i := range left.Pix {
			if left.Pix[i] != 255-right.Pix[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCloseOpenIdempotentOnSolid(t *testing.T) {
	g := NewGray(12, 12)
	for i := range g.Pix {
		g.Pix[i] = 255
	}
	out := g.CloseOpen(PaperKernel())
	for i := range out.Pix {
		if out.Pix[i] != 255 {
			t.Fatal("close/open changed a solid image")
		}
	}
}

func TestBinarize(t *testing.T) {
	g := NewGray(2, 1)
	g.Pix[0], g.Pix[1] = 10, 200
	b := g.Binarize(100)
	if b.Pix[0] != 0 || b.Pix[1] != 255 {
		t.Errorf("binarize: %v", b.Pix)
	}
}
