package similarity

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Rank([]int64{1}, []float64{1, 2})
}

func TestDTWIdenticalSequences(t *testing.T) {
	seq := []float64{1, 5, 2, 8}
	cost := func(i, j int) float64 { return math.Abs(seq[i] - seq[j]) }
	if d := DTW(len(seq), len(seq), cost); d != 0 {
		t.Errorf("identical DTW = %g", d)
	}
}

func TestDTWTimeShiftInvariance(t *testing.T) {
	// DTW should align a stretched copy nearly for free, while
	// element-wise comparison would not.
	a := []float64{0, 0, 10, 10, 0, 0}
	b := []float64{0, 10, 0} // compressed version
	cost := func(i, j int) float64 { return math.Abs(a[i] - b[j]) }
	d := DTW(len(a), len(b), cost)
	if d > 0.5 {
		t.Errorf("DTW of stretched sequences = %g, want ~0", d)
	}
	// Mismatched content must cost more.
	c := []float64{7, 7, 7}
	cost2 := func(i, j int) float64 { return math.Abs(a[i] - c[j]) }
	if DTW(len(a), len(c), cost2) <= d {
		t.Error("dissimilar content not more expensive than time shift")
	}
}

func TestDTWEmptySequences(t *testing.T) {
	cost := func(i, j int) float64 { return 0 }
	if d := DTW(0, 0, cost); d != 0 {
		t.Errorf("empty-empty = %g", d)
	}
	if d := DTW(3, 0, cost); !math.IsInf(d, 1) {
		t.Errorf("nonempty-empty = %g", d)
	}
}

func TestNormalize(t *testing.T) {
	s := Normalize([]float64{10, 20, 30})
	if s[0] != 0 || s[2] != 1 || math.Abs(s[1]-0.5) > 1e-12 {
		t.Errorf("normalized: %v", s)
	}
	cst := Normalize([]float64{5, 5, 5})
	for _, v := range cst {
		if v != 0 {
			t.Errorf("constant normalize: %v", cst)
		}
	}
	inf := Normalize([]float64{1, math.Inf(1), 3})
	if inf[1] != 1 {
		t.Errorf("inf entry = %v", inf[1])
	}
	if inf[0] != 0 || inf[2] != 1 {
		t.Errorf("finite entries: %v", inf)
	}
	allInf := Normalize([]float64{math.Inf(1), math.NaN()})
	if allInf[0] != 1 || allInf[1] != 1 {
		t.Errorf("all-inf normalize: %v", allInf)
	}
}

// Normalize output always lies in [0,1].
func TestNormalizeRangeProperty(t *testing.T) {
	f := func(vs []float64) bool {
		if len(vs) == 0 {
			return true
		}
		out := Normalize(append([]float64(nil), vs...))
		for _, v := range out {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFuse(t *testing.T) {
	lists := [][]float64{{0, 1}, {1, 0}}
	out := Fuse(lists, nil)
	if math.Abs(out[0]-0.5) > 1e-12 || math.Abs(out[1]-0.5) > 1e-12 {
		t.Errorf("equal fuse: %v", out)
	}
	weighted := Fuse(lists, []float64{3, 1})
	if math.Abs(weighted[0]-0.25) > 1e-12 || math.Abs(weighted[1]-0.75) > 1e-12 {
		t.Errorf("weighted fuse: %v", weighted)
	}
	if Fuse(nil, nil) != nil {
		t.Error("empty fuse should be nil")
	}
	zeroW := Fuse(lists, []float64{0, 0})
	if zeroW[0] != 0 || zeroW[1] != 0 {
		t.Errorf("zero-weight fuse: %v", zeroW)
	}
}

func TestRRFBasic(t *testing.T) {
	// Candidate 0 is best in both lists → best (most negative) RRF score;
	// candidates 1 and 2 hold ranks {2,3} and {3,2} → an exact tie.
	lists := [][]float64{{0.1, 0.5, 0.9}, {0.2, 0.8, 0.4}}
	out := RRF(lists, 60)
	if !(out[0] < out[1] && math.Abs(out[1]-out[2]) < 1e-15) {
		t.Errorf("RRF order wrong: %v", out)
	}
	// A third list breaking the tie in favour of candidate 2 must do so.
	out = RRF(append(lists, []float64{0.5, 0.9, 0.1}), 60)
	if !(out[0] < out[2] && out[2] < out[1]) {
		t.Errorf("tie break wrong: %v", out)
	}
	if RRF(nil, 60) != nil {
		t.Error("empty RRF should be nil")
	}
	// c <= 0 falls back to the standard constant.
	def := RRF(lists, 0)
	std := RRF(lists, RRFConstant)
	for i := range def {
		if def[i] != std[i] {
			t.Errorf("default constant mismatch at %d", i)
		}
	}
}

// RRF is invariant to monotone rescaling of any input list — the property
// that makes it robust where min-max score fusion is not.
func TestRRFScaleInvariance(t *testing.T) {
	lists := [][]float64{{0.3, 0.1, 0.7, 0.2}, {5, 9, 1, 3}}
	base := RRF([][]float64{lists[0], lists[1]}, 60)
	scaled := make([]float64, len(lists[1]))
	for i, v := range lists[1] {
		scaled[i] = v*1000 + 7 // monotone transform
	}
	rescaled := RRF([][]float64{lists[0], scaled}, 60)
	for i := range base {
		if math.Abs(base[i]-rescaled[i]) > 1e-12 {
			t.Fatalf("RRF not scale invariant at %d: %g vs %g", i, base[i], rescaled[i])
		}
	}
}

// A feature agreed on by the majority of lists should win RRF even when
// one list is adversarial.
func TestRRFRobustToOneBadList(t *testing.T) {
	good1 := []float64{0.0, 0.5, 0.9}
	good2 := []float64{0.1, 0.4, 0.8}
	bad := []float64{0.9, 0.5, 0.0} // reversed
	out := RRF([][]float64{good1, good2, bad}, 60)
	if out[0] >= out[2] {
		t.Errorf("majority vote lost: %v", out)
	}
}

func TestRankDeterministicTieBreak(t *testing.T) {
	ids := []int64{5, 2, 9}
	d := []float64{0.3, 0.3, 0.1}
	r := Rank(ids, d)
	if r[0].ID != 9 || r[1].ID != 2 || r[2].ID != 5 {
		t.Errorf("rank order: %+v", r)
	}
}

// TestRRFDistanceRange pins the fixed-scale fused distance: 0 for a
// candidate ranked first in every list, inside [0, 1) for any ranks, and
// rising as one rank grows.
func TestRRFDistanceRange(t *testing.T) {
	for n := 1; n <= 7; n++ {
		neg := 0.0
		for i := 0; i < n; i++ {
			neg -= 1 / float64(RRFConstant+1)
		}
		if d := RRFDistance(neg, n); d != 0 {
			t.Fatalf("n=%d: all ranks 1 give %v, want 0", n, d)
		}
		prev := 0.0
		for _, rank := range []int{2, 10, 1000, 1 << 30} {
			neg := -float64(n-1)/float64(RRFConstant+1) - 1/float64(RRFConstant+rank)
			d := RRFDistance(neg, n)
			if d <= prev || d >= 1 {
				t.Fatalf("n=%d rank %d: distance %v, want in (%v, 1)", n, rank, d, prev)
			}
			prev = d
		}
	}
}
