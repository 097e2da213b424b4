package features

import (
	"fmt"
	"math/rand"
	"testing"

	"cbvr/internal/imaging"
)

// ExtractRegionsReference is the naive §4.8 pipeline: its own rescale and
// gray conversion, binarisation into a fresh raster, the box smoothing
// and the stack-based grower. Connected components do not depend on how
// they are traversed, so the run labelling the production path uses is
// provably identical; this baseline keeps the pre-optimisation grower's
// cost measurable.
func ExtractRegionsReference(im *imaging.Image) *RegionStats {
	return growRegionsStack(binarySmoothed(analysisImage(im).ToGray()))
}

// binarySmoothed is §4.8's preprocessing on a fresh raster: Huang
// minimum-fuzziness binarisation, then dilate, erode, erode, dilate with
// the paper's 3×3 box (CloseOpenBox3, which imaging's
// TestBoxMorphologyMatchesGeneric pins to the generic kernel walk).
func binarySmoothed(g *imaging.Gray) *imaging.Gray {
	t := imaging.HuangThreshold(g.Histogram())
	bin := imaging.NewGray(g.W, g.H)
	for i, v := range g.Pix {
		if int(v) > t {
			bin.Pix[i] = 255
		}
	}
	return bin.CloseOpenBox3(bin, &imaging.Gray{})
}

// growRegionsStack is the classic stack-based region growing from §4.8:
// 8-connected components of equal pixel value over the binarised raster.
// It is the reference runLabeller is tested against.
func growRegionsStack(g *imaging.Gray) *RegionStats {
	w, h := g.W, g.H
	labels := make([]int32, w*h)
	for i := range labels {
		labels[i] = -1
	}
	stats := &RegionStats{}
	majorMin := majorRegionMin(w, h)
	type point struct{ x, y int }
	var stack []point
	var region int32
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if labels[y*w+x] >= 0 {
				continue
			}
			val := g.Pix[y*w+x]
			if val == 0 {
				stats.Holes++
			}
			stats.Regions++
			count := 0
			stack = append(stack[:0], point{x, y})
			labels[y*w+x] = region
			for len(stack) > 0 {
				p := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				count++
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						nx, ny := p.x+dx, p.y+dy
						if nx < 0 || ny < 0 || nx >= w || ny >= h {
							continue
						}
						i := ny*w + nx
						if labels[i] < 0 && g.Pix[i] == val {
							labels[i] = region
							stack = append(stack, point{nx, ny})
						}
					}
				}
			}
			if count >= majorMin {
				stats.Major++
			}
			region++
		}
	}
	return stats
}

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
		smooth := binarySmoothed(gray)
		for kind, g := range map[string]*imaging.Gray{"gray": gray, "smoothed": smooth} {
			want := growRegionsStack(g)
			if got := l.regions(g); *got != *want {
				t.Errorf("%s/%s: run labeller %+v, stack grower %+v", name, kind, *got, *want)
			}
		}
	}
}
