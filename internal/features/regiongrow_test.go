package features

import (
	"fmt"
	"math/rand"
	"testing"

	"cbvr/internal/imaging"
)

// grayOf builds a w×h raster from a pixel function.
func grayOf(w, h int, px func(x, y int) uint8) *imaging.Gray {
	g := imaging.NewGray(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			g.Pix[y*w+x] = px(x, y)
		}
	}
	return g
}

// TestRunLabellerMatchesStackGrower is the differential test for the
// run-based labeller: on every raster its three counts must equal the
// retained stack grower's. The fixed shapes are the ones a run/union–find
// scheme gets wrong first — single rows and columns, a checkerboard (one
// run per pixel, joined only diagonally), concentric rings (holes inside
// regions) and U shapes whose arms are separate components until a later
// row unites them.
func TestRunLabellerMatchesStackGrower(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	cases := map[string]*imaging.Gray{
		"empty":     imaging.NewGray(0, 0),
		"1x1":       grayOf(1, 1, func(x, y int) uint8 { return 255 }),
		"1xN":       grayOf(1, 17, func(x, y int) uint8 { return uint8(y / 3 % 2 * 255) }),
		"Nx1":       grayOf(17, 1, func(x, y int) uint8 { return uint8(x / 3 % 2 * 255) }),
		"2x2 split": grayOf(2, 2, func(x, y int) uint8 { return uint8((x ^ y) * 255) }),
		"all equal": grayOf(30, 20, func(x, y int) uint8 { return 0 }),
		"checkerboard": grayOf(31, 23, func(x, y int) uint8 {
			return uint8((x + y) % 2 * 255)
		}),
		"rings": grayOf(41, 41, func(x, y int) uint8 {
			d := max(x-20, 20-x, y-20, 20-y) // Chebyshev distance from the centre
			return uint8(d / 3 % 2 * 255)
		}),
		"u shapes": grayOf(40, 12, func(x, y int) uint8 {
			if y < 11 && x%4 < 2 {
				return 0 // gaps between the arms the last row joins
			}
			return 255
		}),
		"diagonal stripes": grayOf(33, 33, func(x, y int) uint8 {
			return uint8((x + 2*y) / 3 % 3 * 100)
		}),
	}
	for trial := 0; trial < 120; trial++ {
		w, h := 1+rng.Intn(40), 1+rng.Intn(40)
		levels := 2
		if trial%2 == 1 {
			levels = 2 + rng.Intn(5) // multi-level, like an un-binarised gray plane
		}
		// Blocks of 1–5 pixels, so both one-run-per-pixel rows and long
		// runs occur.
		block := 1 + rng.Intn(5)
		stride := w/block + 1
		vals := make([]uint8, stride*(h/block+1))
		for i := range vals {
			vals[i] = uint8(rng.Intn(levels) * 51)
		}
		name := fmt.Sprintf("random %d (%dx%d, %d levels, block %d)", trial, w, h, levels, block)
		cases[name] = grayOf(w, h, func(x, y int) uint8 { return vals[y/block*stride+x/block] })
	}
	var l runLabeller // one labeller across all cases: its slices are reused
	for name, g := range cases {
		want := growRegionsStack(g)
		if got := l.regions(g); *got != *want {
			t.Errorf("%s: run labeller %+v, stack grower %+v", name, *got, *want)
		}
	}
	// Pin the known answers, so the two cannot agree by being wrong the
	// same way.
	for name, want := range map[string]RegionStats{
		"empty":        {},
		"2x2 split":    {Regions: 2, Holes: 1, Major: 2},
		"checkerboard": {Regions: 2, Holes: 1, Major: 2}, // diagonals join each colour
		"rings":        {Regions: 7, Holes: 4, Major: 7},
		"u shapes":     {Regions: 11, Holes: 10, Major: 11},
	} {
		if got := l.regions(cases[name]); *got != want {
			t.Errorf("%s: %+v, want %+v", name, *got, want)
		}
	}
}

// TestRunLabellerOnExtractorRasters runs the differential over what the
// extractor feeds the labeller — the binarised, smoothed plane — and over
// the un-binarised gray plane of the same frames.
func TestRunLabellerOnExtractorRasters(t *testing.T) {
	frames := equivalenceFrames()
	for seed := int64(0); seed < 12; seed++ {
		frames[fmt.Sprintf("structured_%d", seed)] = structuredFrame(seed)
	}
	var l runLabeller
	for name, im := range frames {
		gray := NewPlanes(im).Gray
		smooth := gray.BinarizeAuto().CloseOpen(imaging.PaperKernel())
		for kind, g := range map[string]*imaging.Gray{"gray": gray, "smoothed": smooth} {
			want := growRegionsStack(g)
			if got := l.regions(g); *got != *want {
				t.Errorf("%s/%s: run labeller %+v, stack grower %+v", name, kind, *got, *want)
			}
		}
	}
}
