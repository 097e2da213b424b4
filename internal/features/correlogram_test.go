package features

import (
	"fmt"
	"math/rand"
	"testing"

	"cbvr/internal/imaging"
)

// ExtractCorrelogramReference is the naive §4.7 extractor: its own
// rescale and HSV quantisation, then a per-pixel countRing walk over every
// Chebyshev ring, exactly as the paper's pseudo-code does it. It is the
// bit-identity baseline for the bitset path (TestFastExtractorsMatchReference)
// and the "before" benchmark.
func ExtractCorrelogramReference(im *imaging.Image) *Correlogram {
	a := analysisImage(im)
	raw := ringWalkCounts(quantizePlane(a), a.W, a.H)
	return normalizeCorrelogram(&raw)
}

// quantizePlane maps every pixel of the analysis raster into its HSV cell.
func quantizePlane(a *imaging.Image) []uint8 {
	quant := make([]uint8, a.W*a.H)
	for i, p := 0, 0; i < len(quant); i, p = i+1, p+3 {
		quant[i] = uint8(QuantizeHSV(a.Pix[p], a.Pix[p+1], a.Pix[p+2]))
	}
	return quant
}

// countRing counts pixels with quantised colour c on the Chebyshev ring of
// radius d around (x, y), clipped to the image.
func countRing(quant []uint8, w, h, x, y, d int, c uint8) int {
	n := 0
	x0, x1 := x-d, x+d
	y0, y1 := y-d, y+d
	// Top and bottom rows.
	for _, ry := range [2]int{y0, y1} {
		if ry < 0 || ry >= h {
			continue
		}
		for rx := x0; rx <= x1; rx++ {
			if rx < 0 || rx >= w {
				continue
			}
			if quant[ry*w+rx] == c {
				n++
			}
		}
	}
	// Left and right columns, excluding corners already counted.
	for _, rx := range [2]int{x0, x1} {
		if rx < 0 || rx >= w {
			continue
		}
		for ry := y0 + 1; ry < y1; ry++ {
			if ry < 0 || ry >= h {
				continue
			}
			if quant[ry*w+rx] == c {
				n++
			}
		}
	}
	return n
}

// ringWalkCounts is ExtractCorrelogramReference's counting loop over a
// bare quantised plane: every pixel walks its four clipped rings.
func ringWalkCounts(quant []uint8, w, h int) (raw [CorrelogramBins][CorrelogramMaxDistance]float64) {
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c := quant[y*w+x]
			for d := 1; d <= CorrelogramMaxDistance; d++ {
				raw[c][d-1] += float64(countRing(quant, w, h, x, y, d, c))
			}
		}
	}
	return raw
}

// blockPlane fills a w×h plane with block×block squares of colours drawn
// from a palette of the given size.
func blockPlane(rng *rand.Rand, w, h, palette, block int) []uint8 {
	bw := (w + block - 1) / block
	cells := make([]uint8, bw*((h+block-1)/block))
	for i := range cells {
		cells[i] = uint8(rng.Intn(palette))
	}
	quant := make([]uint8, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			quant[y*w+x] = cells[(y/block)*bw+x/block]
		}
	}
	return quant
}

// TestCorrelogramBitsetMatchesRingWalk is the differential test of the
// bitset pair counter: raw counts (before normalisation, which would hide
// a common factor) equal the ring walk's on planes whose widths sit on
// and around the 64-bit word boundaries and whose heights are below, at
// and above the ring depth, from one colour to all 64, in single pixels
// and in blocks — and on small random shapes where every ring is clipped.
//
// Seeded mutations, each run against this test: dropping the ×2 fails
// every case that has a pair at all (and TestCorrelogramKnownAnswers);
// filing the shifted pairs under min(s, dy) or under s instead of
// max(s, dy), stopping dy one short, or counting offset +s twice instead
// of +s and −s, fails every case with h ≥ 2 (and the known answers); not
// zeroing a row's mask after use, or OR-ing a row's colour set into the
// ring slot's old one, fails the cases with h > 1 (the latter only once
// the ring wraps, h > 5, or when a colour skips a row); dropping the
// carry from word k+1 in the shift fails exactly the cases with w ≥ 65.
func TestCorrelogramBitsetMatchesRingWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	check := func(name string, quant []uint8, w, h int) {
		t.Helper()
		if got, want := correlogramCounts(quant, w, h), ringWalkCounts(quant, w, h); got != want {
			t.Errorf("%s: bitset counts differ from the ring walk", name)
		}
	}
	for _, w := range []int{1, 2, 63, 64, 65, 127, 128, 129, 300} {
		for _, h := range []int{1, 2, 5, 9, 300} {
			for _, block := range []int{1, 2, 16} {
				palette := 1 + rng.Intn(CorrelogramBins)
				check(fmt.Sprintf("%dx%d block %d, %d colours", w, h, block, palette),
					blockPlane(rng, w, h, palette, block), w, h)
			}
		}
	}
	for _, palette := range []int{1, CorrelogramBins} {
		check(fmt.Sprintf("130x7, %d colours", palette), blockPlane(rng, 130, 7, palette, 1), 130, 7)
	}
	for trial := 0; trial < 200; trial++ {
		w, h := 1+rng.Intn(24), 1+rng.Intn(24)
		palette := 1 + rng.Intn(CorrelogramBins)
		check(fmt.Sprintf("trial %d: %dx%d, %d colours", trial, w, h, palette),
			blockPlane(rng, w, h, palette, 1), w, h)
	}
}

// TestCorrelogramKnownAnswers pins counts worked out by hand.
func TestCorrelogramKnownAnswers(t *testing.T) {
	type counts = [CorrelogramMaxDistance]float64
	cases := []struct {
		name  string
		w, h  int
		quant []uint8
		want  map[uint8]counts
	}{
		// Four pixels, each with the other three on its radius-1 ring.
		{"2x2 one colour", 2, 2, []uint8{7, 7, 7, 7}, map[uint8]counts{7: {12, 0, 0, 0}}},
		{"1x1", 1, 1, []uint8{3}, nil},
		// Six pixels in a row: 5 pairs one apart, 4 two apart, … ×2.
		{"6x1 one colour", 6, 1, []uint8{1, 1, 1, 1, 1, 1}, map[uint8]counts{1: {10, 8, 6, 4}}},
		{"1x6 one colour", 1, 6, []uint8{1, 1, 1, 1, 1, 1}, map[uint8]counts{1: {10, 8, 6, 4}}},
		// Colour 9 only in the last row and the last column: an L of five
		// pixels, (2,0) (2,1) (0,2) (1,2) (2,2).
		{"3x3 last row and column", 3, 3, []uint8{
			0, 0, 9,
			0, 0, 9,
			9, 9, 9,
		}, map[uint8]counts{0: {12, 0, 0, 0}, 9: {10, 10, 0, 0}}},
		// Two pixels four columns and one row apart: Chebyshev 4, once
		// each way; every other colour occurs once.
		{"5x2 far corners", 5, 2, []uint8{
			5, 1, 2, 3, 4,
			6, 7, 8, 9, 5,
		}, map[uint8]counts{5: {0, 0, 0, 2}}},
	}
	for _, tc := range cases {
		got := correlogramCounts(tc.quant, tc.w, tc.h)
		for c := range got {
			if got[c] != tc.want[uint8(c)] {
				t.Errorf("%s: colour %d counts %v, want %v", tc.name, c, got[c], tc.want[uint8(c)])
			}
		}
	}
	// Normalised, the 2×2 plane's one colour is the maximum at d = 1 and
	// absent beyond.
	cor := correlogramFromQuant([]uint8{7, 7, 7, 7}, 2, 2)
	if cor.Cor[7] != (counts{1, 0, 0, 0}) {
		t.Errorf("2x2 one colour: Cor[7] = %v, want {1 0 0 0}", cor.Cor[7])
	}
}
