// Package rangeindex implements the paper's §4.2 "Histogram Based Range
// Finder" index (Fig. 7): a fixed three-level binary tree over grey-level
// histogram mass. A frame descends from [0,255] into halves, quarters and
// eighths as long as the candidate sub-range holds more than a threshold
// percentage of the histogram mass (55% at the first level, 60% below);
// where the criterion fails, the frame is grouped at the last satisfied
// level. The resulting [min,max] pair is stored in the KEY_FRAMES MIN/MAX
// columns and used to prune candidates at query time.
package rangeindex

import "fmt"

// Paper constants: the pseudo-code divides bucket mass by 900.0 — percent
// for the 300×300 analysis raster — and compares with 55 (level 1) and 60
// (levels 2–3).
const (
	PaperDivisor         = 900.0
	PaperLevel1Threshold = 55.0
	PaperDeepThreshold   = 60.0
	PaperLevels          = 3
)

// AssignFaithful is a line-by-line port of the paper's §4.2 pseudo-code,
// including its off-by-one quirks (each sub-range sum iterates "i < hi"
// and therefore drops the top bin: 0..62 for [0,63], 64..126 for [64,127],
// and so on). The histogram must come from the 300×300 analysis raster for
// the /900 percent scaling to be meaningful.
func AssignFaithful(hist *[256]int) (min, max int) {
	sumRange := func(lo, hi int) float64 { // sums bins [lo, hi) as the paper does
		s := 0
		for i := lo; i < hi; i++ {
			s += hist[i]
		}
		return float64(s) / PaperDivisor
	}

	// 1st block test: lower half vs upper half at 55%.
	min, max = 0, 255
	if sumRange(0, 127) > PaperLevel1Threshold {
		min, max = 0, 127
	} else {
		min, max = 128, 255
	}

	// 2nd block test: quarters at 60%.
	switch {
	case min == 0 && max == 127:
		if sumRange(0, 63) > PaperDeepThreshold {
			min, max = 0, 63
		} else if sumRange(64, 127) > PaperDeepThreshold {
			min, max = 64, 127
		}
	case min == 128 && max == 255:
		if sumRange(128, 191) > PaperDeepThreshold {
			min, max = 128, 191
		} else if sumRange(192, 255) > PaperDeepThreshold {
			min, max = 192, 255
		}
	}

	// 3rd block test: eighths at 60%.
	switch {
	case min == 0 && max == 63:
		if sumRange(0, 31) > PaperDeepThreshold {
			min, max = 0, 31
		} else if sumRange(32, 63) > PaperDeepThreshold {
			min, max = 32, 63
		}
	case min == 64 && max == 127:
		if sumRange(64, 95) > PaperDeepThreshold {
			min, max = 64, 95
		} else if sumRange(96, 127) > PaperDeepThreshold {
			min, max = 96, 127
		}
	case min == 128 && max == 191:
		if sumRange(128, 159) > PaperDeepThreshold {
			min, max = 128, 159
		} else if sumRange(160, 191) > PaperDeepThreshold {
			min, max = 160, 191
		}
	case min == 192 && max == 255:
		if sumRange(192, 223) > PaperDeepThreshold {
			min, max = 192, 223
		} else if sumRange(224, 255) > PaperDeepThreshold {
			min, max = 224, 255
		}
	}
	return min, max
}

// Range is a [Min,Max] grey-level bucket.
type Range struct {
	Min, Max int
}

// Overlaps reports whether two ranges intersect. A frame grouped at a
// shallow level (wide range) may be visually close to one grouped deeper
// inside that range, so query-time pruning keeps every intersecting
// bucket.
func (r Range) Overlaps(o Range) bool {
	return r.Min <= o.Max && o.Min <= r.Max
}

func (r Range) String() string { return fmt.Sprintf("[%d,%d]", r.Min, r.Max) }

// PruningFactor estimates query selectivity from the population of every
// occupied bucket (Fig. 7 diagnostics): the mean fraction of frames
// scanned per distinct bucket used as a query. 1.0 means no pruning.
func PruningFactor(sizes map[Range]int) float64 {
	n := 0
	for _, c := range sizes {
		n += c
	}
	if n == 0 {
		return 1
	}
	var sum float64
	for q := range sizes {
		scanned := 0
		for r, c := range sizes {
			if r.Overlaps(q) {
				scanned += c
			}
		}
		sum += float64(scanned) / float64(n)
	}
	return sum / float64(len(sizes))
}
