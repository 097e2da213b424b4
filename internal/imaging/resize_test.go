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
