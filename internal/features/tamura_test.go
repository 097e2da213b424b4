package features

import (
	"math"
	"math/rand"
	"testing"

	"cbvr/internal/imaging"
)

// tamuraDirectionalityFloat is the directionality pass as it was before
// the integer rewrite: float Prewitt sums through an at() closure, the
// halved magnitude against the threshold, float bins.
func tamuraDirectionalityFloat(g *imaging.Gray) [TamuraDirBins]float64 {
	var hist [TamuraDirBins]float64
	w, h := g.W, g.H
	at := func(x, y int) float64 { return float64(g.Pix[y*w+x]) }
	for y := 1; y < h-1; y++ {
		for x := 1; x < w-1; x++ {
			gh := (at(x+1, y-1) + at(x+1, y) + at(x+1, y+1)) -
				(at(x-1, y-1) + at(x-1, y) + at(x-1, y+1))
			gv := (at(x-1, y+1) + at(x, y+1) + at(x+1, y+1)) -
				(at(x-1, y-1) + at(x, y-1) + at(x+1, y-1))
			mag := (math.Abs(gh) + math.Abs(gv)) / 2
			if mag < tamuraDirThreshold {
				continue
			}
			theta := math.Atan2(gv, gh) + math.Pi/2
			for theta < 0 {
				theta += math.Pi
			}
			for theta >= math.Pi {
				theta -= math.Pi
			}
			bin := int(theta / math.Pi * TamuraDirBins)
			if bin == TamuraDirBins {
				bin = TamuraDirBins - 1
			}
			hist[bin]++
		}
	}
	return hist
}

// integralFloat is the summed-area table as tamuraCoarseness used to
// build it: freshly allocated, float64.
func integralFloat(g *imaging.Gray) []float64 {
	w, h := g.W, g.H
	w1 := w + 1
	ii := make([]float64, w1*(h+1))
	for y := 1; y <= h; y++ {
		var rowSum float64
		for x := 1; x <= w; x++ {
			rowSum += float64(g.Pix[(y-1)*w+x-1])
			ii[y*w1+x] = ii[(y-1)*w1+x] + rowSum
		}
	}
	return ii
}

// tamuraCoarsenessFloat is the coarseness pass as it was before the
// integral image moved into frameScratch as uint32: a fresh float64
// summed-area table, float rectangle sums.
func tamuraCoarsenessFloat(g *imaging.Gray) float64 {
	w, h := g.W, g.H
	w1 := w + 1
	ii := integralFloat(g)
	mean := func(x0, y0, x1, y1 int) float64 {
		return (ii[y1*w1+x1] - ii[y0*w1+x1] - ii[y1*w1+x0] + ii[y0*w1+x0]) / float64((x1-x0)*(y1-y0))
	}
	var total float64
	margin := 1 << tamuraMaxK
	for y := margin; y < h-margin; y += tamuraSampleStep {
		for x := margin; x < w-margin; x += tamuraSampleStep {
			bestK, bestE := 0, -1.0
			for k := 1; k <= tamuraMaxK; k++ {
				half, size := 1<<(k-1), 1<<k
				eh := math.Abs(mean(x-size, y-half, x, y+half) - mean(x, y-half, x+size, y+half))
				ev := math.Abs(mean(x-half, y-size, x+half, y) - mean(x-half, y, x+half, y+size))
				if e := math.Max(eh, ev); e > bestE {
					bestE, bestK = e, k
				}
			}
			total += float64(int(1) << bestK)
		}
	}
	return total
}

// TestTamuraCoarsenessMatchesFloat pins the reused uint32 integral image
// to the float one it replaced — entry for entry, a large raster first
// and then smaller ones of other strides through the same buffer, so the
// zero row and column have to be re-established — and the coarseness
// computed from it.
func TestTamuraCoarsenessMatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var reused []uint32
	for _, dim := range [][2]int{{300, 300}, {17, 17}, {97, 61}, {40, 120}, {16, 16}, {1, 1}} {
		g := &imaging.Gray{W: dim[0], H: dim[1], Pix: make([]uint8, dim[0]*dim[1])}
		rng.Read(g.Pix)
		reused = integralImage(g, reused)
		want := integralFloat(g)
		if len(reused) != len(want) {
			t.Fatalf("%dx%d: integral image has %d entries, want %d", g.W, g.H, len(reused), len(want))
		}
		for i, v := range reused {
			if float64(v) != want[i] {
				t.Fatalf("%dx%d: integral image entry %d = %d, want %v", g.W, g.H, i, v, want[i])
			}
		}
		if got, want := tamuraCoarseness(g), tamuraCoarsenessFloat(g); got != want {
			t.Errorf("%dx%d noise: coarseness %v, float integral gives %v", g.W, g.H, got, want)
		}
	}
	for name, im := range equivalenceFrames() {
		g := NewPlanes(im).Gray
		if got, want := tamuraCoarseness(g), tamuraCoarsenessFloat(g); got != want {
			t.Errorf("frame %s: coarseness %v, float integral gives %v", name, got, want)
		}
	}
}

// TestTamuraDirectionalityMatchesFloat pins the integer Prewitt pass to
// the float one it replaced: degenerate sizes (no interior pixel), flat
// planes, gradients that sit exactly on the vote threshold (|gh|+|gv| =
// 23, 24, 25), pure horizontal/vertical/diagonal edges that land on bin
// boundaries, full-range noise, and the extractor's own gray planes.
//
// Seeded mutations, each run against this test: gh from the wrong pair of
// column sums (sum1−sum0), gv with one row difference counted twice and
// one dropped, and gh and gv swapped in Atan2 each fail ten or more cases;
// `<=` for `<` at the threshold fails "step 8" and the noise cases.
func TestTamuraDirectionalityMatchesFloat(t *testing.T) {
	gray := func(w, h int, f func(x, y int) uint8) *imaging.Gray {
		g := &imaging.Gray{W: w, H: h, Pix: make([]uint8, w*h)}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				g.Pix[y*w+x] = f(x, y)
			}
		}
		return g
	}
	rng := rand.New(rand.NewSource(11))
	cases := map[string]*imaging.Gray{
		"1x1":   gray(1, 1, func(x, y int) uint8 { return 9 }),
		"2x5":   gray(2, 5, func(x, y int) uint8 { return uint8(40 * y) }),
		"5x2":   gray(5, 2, func(x, y int) uint8 { return uint8(40 * x) }),
		"3x3":   gray(3, 3, func(x, y int) uint8 { return uint8(30 * (x + y)) }),
		"flat":  gray(20, 20, func(x, y int) uint8 { return 128 }),
		"noise": gray(97, 61, func(x, y int) uint8 { return uint8(rng.Intn(256)) }),
		"low noise": gray(80, 80, func(x, y int) uint8 {
			return uint8(100 + rng.Intn(9))
		}),
		// A vertical step of height s gives gh = 3s next to it, gv = 0:
		// s = 7 votes not (21 < 24), s = 8 votes exactly at the threshold.
		"step 7": gray(12, 12, func(x, y int) uint8 { return uint8(50 + 7*(x/6)) }),
		"step 8": gray(12, 12, func(x, y int) uint8 { return uint8(50 + 8*(x/6)) }),
		// A lone pixel 23 or 25 above a flat plane: the interior pixels
		// beside it see |gh| + |gv| = 23 or 25, the diagonal ones twice that.
		"threshold 23": gray(5, 5, func(x, y int) uint8 {
			if x == 3 && y == 3 {
				return 123
			}
			return 100
		}),
		"threshold 25": gray(5, 5, func(x, y int) uint8 {
			if x == 3 && y == 3 {
				return 125
			}
			return 100
		}),
		"horizontal edge": gray(16, 16, func(x, y int) uint8 { return uint8(200 * (y / 8)) }),
		"diagonal":        gray(32, 32, func(x, y int) uint8 { return uint8(4 * (x + y)) }),
		"anti-diagonal":   gray(32, 32, func(x, y int) uint8 { return uint8(128 + 4*(x-y)) }),
		"checkerboard":    gray(31, 17, func(x, y int) uint8 { return uint8(255 * ((x + y) % 2)) }),
	}
	for name, im := range equivalenceFrames() {
		cases["frame "+name] = NewPlanes(im).Gray
	}
	voted := 0
	for name, g := range cases {
		got, want := tamuraDirectionality(g), tamuraDirectionalityFloat(g)
		if got != want {
			t.Errorf("%s: integer directionality %v, float %v", name, got, want)
		}
		for _, v := range want {
			voted += int(v)
		}
	}
	if voted == 0 {
		t.Error("no case produced a vote")
	}
}
