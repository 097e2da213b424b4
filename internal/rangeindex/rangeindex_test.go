package rangeindex

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// histWithMass builds a 300×300-scale histogram with the given share of
// mass centred in [lo,hi] and the rest spread evenly elsewhere.
func histWithMass(lo, hi int, pct float64) [256]int {
	var h [256]int
	total := 90000
	in := int(float64(total) * pct / 100)
	span := hi - lo + 1
	for i := lo; i <= hi; i++ {
		h[i] = in / span
	}
	rest := total - (in/span)*span
	out := 0
	for i := 0; i < 256; i++ {
		if i < lo || i > hi {
			out++
		}
	}
	if out > 0 {
		per := rest / out
		for i := 0; i < 256; i++ {
			if i < lo || i > hi {
				h[i] = per
			}
		}
	}
	return h
}

// assignGeneral is a generalised range finder to cross-check
// AssignFaithful against: correct inclusive bin boundaries, an arbitrary
// level count, and mass measured against the true pixel total. levels counts descents below the root
// (levels == 3 mirrors the paper's depth). t1 is the first-level threshold
// percentage and tDeep the threshold for all deeper levels.
func assignGeneral(hist *[256]int, total int, levels int, t1, tDeep float64) (min, max int) {
	if total <= 0 {
		for _, c := range hist {
			total += c
		}
	}
	if total == 0 {
		return 0, 255
	}
	pct := func(lo, hi int) float64 { // inclusive [lo, hi]
		s := 0
		for i := lo; i <= hi; i++ {
			s += hist[i]
		}
		return float64(s) / float64(total) * 100
	}
	min, max = 0, 255
	thr := t1
	for l := 0; l < levels; l++ {
		width := (max - min + 1) / 2
		if width < 1 {
			break
		}
		if pct(min, min+width-1) > thr {
			max = min + width - 1
		} else if pct(min+width, max) > thr {
			min = min + width
		} else {
			break
		}
		thr = tDeep
	}
	return min, max
}

func TestAssignFaithfulDescendsToEighth(t *testing.T) {
	// 95% of mass in [0,31] → should reach the deepest level.
	h := histWithMass(0, 30, 95)
	min, max := AssignFaithful(&h)
	if min != 0 || max != 31 {
		t.Errorf("got [%d,%d], want [0,31]", min, max)
	}
}

func TestAssignFaithfulStopsAtHalf(t *testing.T) {
	// Mass spread evenly over [0,127]: level 1 passes (≈100% > 55) but no
	// quarter reaches 60%.
	h := histWithMass(0, 127, 99)
	min, max := AssignFaithful(&h)
	if min != 0 || max != 127 {
		t.Errorf("got [%d,%d], want [0,127]", min, max)
	}
}

func TestAssignFaithfulUpperBranch(t *testing.T) {
	h := histWithMass(192, 250, 90)
	min, max := AssignFaithful(&h)
	if min < 128 {
		t.Errorf("got [%d,%d], expected upper half descent", min, max)
	}
}

func TestAssignFaithfulDarkFrameMatchesPaperSample(t *testing.T) {
	// The paper's Fig. 8 sample (a dark frame) reports "min = 0,
	// max=127": most mass in the lower half but not concentrated enough
	// to reach a quarter. Mass 70% in [0,100] (spread over a full
	// quarter-crossing span).
	h := histWithMass(0, 100, 75)
	min, max := AssignFaithful(&h)
	if min != 0 || max != 127 {
		t.Errorf("got [%d,%d], want [0,127] as in Fig. 8", min, max)
	}
}

// The faithful and generalised assigners agree on strongly concentrated
// histograms (where the off-by-one bins don't matter).
func TestFaithfulVsGeneralisedAgreement(t *testing.T) {
	for _, c := range []struct{ lo, hi int }{{0, 20}, {40, 60}, {130, 150}, {230, 250}} {
		h := histWithMass(c.lo, c.hi, 97)
		fmin, fmax := AssignFaithful(&h)
		gmin, gmax := assignGeneral(&h, 90000, PaperLevels, PaperLevel1Threshold, PaperDeepThreshold)
		if fmin != gmin || fmax != gmax {
			t.Errorf("mass at [%d,%d]: faithful [%d,%d] vs general [%d,%d]",
				c.lo, c.hi, fmin, fmax, gmin, gmax)
		}
	}
}

// Both assigners always return one of the 15 canonical buckets: a valid
// aligned range.
func TestAssignProducesCanonicalBuckets(t *testing.T) {
	valid := make(map[Range]bool)
	valid[Range{0, 255}] = true
	for _, w := range []int{128, 64, 32} {
		for lo := 0; lo < 256; lo += w {
			valid[Range{lo, lo + w - 1}] = true
		}
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h [256]int
		for i := range h {
			h[i] = rng.Intn(1000)
		}
		min, max := AssignFaithful(&h)
		if !valid[Range{min, max}] {
			return false
		}
		gmin, gmax := assignGeneral(&h, 0, PaperLevels, PaperLevel1Threshold, PaperDeepThreshold)
		return valid[Range{gmin, gmax}]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAssignEmptyHistogram(t *testing.T) {
	var h [256]int
	min, max := assignGeneral(&h, 0, 3, 55, 60)
	if min != 0 || max != 255 {
		t.Errorf("empty histogram: [%d,%d]", min, max)
	}
}

func TestAssignDeeperLevels(t *testing.T) {
	// The generalised assigner can go past the paper's 3 levels.
	h := histWithMass(0, 10, 99)
	min, max := assignGeneral(&h, 0, 5, 55, 60)
	if max-min > 15 {
		t.Errorf("5 levels should reach width 8..16: [%d,%d]", min, max)
	}
}

func TestRangeOverlapContains(t *testing.T) {
	a := Range{0, 127}
	b := Range{64, 95}
	c := Range{128, 255}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("nested ranges must overlap")
	}
	if a.Overlaps(c) {
		t.Error("disjoint ranges overlap")
	}
	if !a.Overlaps(a) {
		t.Error("self relation wrong")
	}
	if a.String() != "[0,127]" {
		t.Errorf("String: %s", a.String())
	}
}

func TestIndexBucketSizesAndPruning(t *testing.T) {
	// Two disjoint clusters → pruning factor well below 1.
	sizes := map[Range]int{{0, 31}: 50, {224, 255}: 50}
	if pf := PruningFactor(sizes); pf != 0.5 {
		t.Errorf("disjoint clusters: pruning factor %g, want 0.5", pf)
	}
	// A root-bucket frame overlaps every query, so nothing is pruned for
	// it and every other query scans it too.
	sizes[Range{0, 255}] = 100
	if pf, want := PruningFactor(sizes), (0.75+0.75+1.0)/3; pf != want {
		t.Errorf("with root bucket: pruning factor %g, want %g", pf, want)
	}
	if PruningFactor(nil) != 1 {
		t.Error("empty population pruning factor should be 1")
	}
}
