package imaging

import (
	"math/rand"
	"testing"
)

func randomGray(rng *rand.Rand, w, h int) *Gray {
	g := NewGray(w, h)
	rng.Read(g.Pix)
	return g
}

// Gabor filtering depends on (*Gray).Rescale (300×300 gray plane →
// 64×64 filter raster); these pin its nearest-neighbour semantics at the
// edges.

func TestGrayRescaleIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][2]int{{1, 1}, {7, 3}, {64, 64}} {
		src := randomGray(rng, dims[0], dims[1])
		dst := src.Rescale(dims[0], dims[1])
		if dst.W != src.W || dst.H != src.H {
			t.Fatalf("%dx%d: identity rescale changed dims to %dx%d", src.W, src.H, dst.W, dst.H)
		}
		for i := range src.Pix {
			if dst.Pix[i] != src.Pix[i] {
				t.Fatalf("%dx%d: identity rescale changed pixel %d", src.W, src.H, i)
			}
		}
		// A fresh copy, not an alias.
		dst.Pix[0] ^= 0xff
		if src.Pix[0] == dst.Pix[0] {
			t.Fatalf("%dx%d: identity rescale aliases the source", src.W, src.H)
		}
	}
}

func TestGrayRescaleFrom1x1(t *testing.T) {
	src := NewGray(1, 1)
	src.Pix[0] = 173
	dst := src.Rescale(5, 9)
	if dst.W != 5 || dst.H != 9 {
		t.Fatalf("dims %dx%d", dst.W, dst.H)
	}
	for i, v := range dst.Pix {
		if v != 173 {
			t.Fatalf("pixel %d = %d, want the single source value", i, v)
		}
	}
	one := src.Rescale(1, 1)
	if one.Pix[0] != 173 {
		t.Errorf("1x1 → 1x1 = %d", one.Pix[0])
	}
}

func TestGrayRescaleTo1x1(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := randomGray(rng, 13, 7)
	dst := src.Rescale(1, 1)
	// Nearest-neighbour picks the source pixel at (0*13/1, 0*7/1) = (0,0).
	if dst.Pix[0] != src.Pix[0] {
		t.Errorf("1x1 downscale = %d, want top-left %d", dst.Pix[0], src.Pix[0])
	}
}

func TestGrayRescaleNonSquare(t *testing.T) {
	// 4×2 checkerboard-ish source with distinct values per cell.
	src := NewGray(4, 2)
	copy(src.Pix, []uint8{10, 20, 30, 40, 50, 60, 70, 80})
	up := src.Rescale(8, 4)
	// Every destination pixel must equal its nearest source pixel
	// (sx = x*W/w, sy = y*H/h).
	for y := 0; y < up.H; y++ {
		for x := 0; x < up.W; x++ {
			want := src.Pix[(y*src.H/up.H)*src.W+x*src.W/up.W]
			if got := up.Pix[y*up.W+x]; got != want {
				t.Fatalf("upscale (%d,%d) = %d, want %d", x, y, got, want)
			}
		}
	}
	down := src.Rescale(2, 1)
	if down.Pix[0] != 10 || down.Pix[1] != 30 {
		t.Errorf("downscale = %v, want [10 30]", down.Pix)
	}
}

// Down-then-up by the same integer factor must reproduce the sampled
// grid exactly (nearest-neighbour has no interpolation error).
func TestGrayRescaleDownUpSampledGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := randomGray(rng, 32, 16)
	down := src.Rescale(16, 8)
	for y := 0; y < down.H; y++ {
		for x := 0; x < down.W; x++ {
			if down.Pix[y*down.W+x] != src.Pix[(y*2)*src.W+x*2] {
				t.Fatalf("downscale (%d,%d) not the sampled source pixel", x, y)
			}
		}
	}
	up := down.Rescale(32, 16)
	if up.W != 32 || up.H != 16 {
		t.Fatalf("dims %dx%d", up.W, up.H)
	}
	// Each 2×2 block of the upscale replicates its downsampled pixel.
	for y := 0; y < up.H; y++ {
		for x := 0; x < up.W; x++ {
			if up.Pix[y*up.W+x] != down.Pix[(y/2)*down.W+x/2] {
				t.Fatalf("upscale (%d,%d) not a block replicate", x, y)
			}
		}
	}
}

func TestGrayRescalePanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for 0x5 rescale")
		}
	}()
	NewGray(3, 3).Rescale(0, 5)
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

// BenchmarkCloseOpenReference is the generic kernel-walk baseline
// ExtractRegionsReference keeps.
func BenchmarkCloseOpenReference(b *testing.B) {
	g := benchBinary()
	k := PaperKernel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.CloseOpen(k)
	}
}
