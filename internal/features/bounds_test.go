package features

import (
	"math"
	"math/rand"
	"testing"
)

func pack(d Descriptor) []float64 { return d.AppendTo(nil) }

// pairLowerBound is BatchLowerBound for one centroid: max(0, d(q, cent) -
// rad), made floating-point-safe by boundSlack.
func pairLowerBound(kind Kind, q, cent []float64, rad float64) float64 {
	d := PairDistance(kind, q, cent)
	lb := d - rad - boundSlack*(d+rad)
	if lb < 0 {
		return 0
	}
	return lb
}

// TestPairLowerBoundSound is the soundness property the pruner rests on:
// for any cell (centroid = mean of member packed vectors, radius = max
// member distance to that centroid) and any query,
//
//	PairDistance(q, x) >= pairLowerBound(q, cent, rad)
//
// for every member x. Exercised per kind over many random cells,
// including zero-mass histogram degenerates on both the query and member
// sides. The slack tolerance is zero: the derivation uses only the
// triangle inequality and a max, and any violation — however small —
// would mean the exact single-kind sweep can drop a true top-K row.
func TestPairLowerBoundSound(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, kind := range AllKinds() {
		if !BoundSupported(kind) {
			t.Fatalf("kind %d: BoundSupported false but kind exists", kind)
		}
		for trial := 0; trial < 200; trial++ {
			nm := 1 + rng.Intn(12)
			members := make([][]float64, nm)
			stride := Stride(kind)
			cent := make([]float64, stride)
			for i := range members {
				members[i] = pack(randDescriptor(rng, kind, kind == KindHistogram && rng.Intn(8) == 0))
				for j, v := range members[i] {
					cent[j] += v
				}
			}
			for j := range cent {
				cent[j] /= float64(nm)
			}
			rad := 0.0
			for _, m := range members {
				if d := PairDistance(kind, m, cent); d > rad {
					rad = d
				}
			}
			q := pack(randDescriptor(rng, kind, kind == KindHistogram && rng.Intn(8) == 0))
			lb := pairLowerBound(kind, q, cent, rad)
			if lb < 0 {
				t.Fatalf("kind %d: negative lower bound %g", kind, lb)
			}
			for mi, m := range members {
				if d := PairDistance(kind, q, m); d < lb {
					t.Fatalf("kind %d trial %d member %d: distance %.17g below bound %.17g (rad %.17g)",
						kind, trial, mi, d, lb, rad)
				}
			}
		}
	}
}

// TestBatchLowerBoundMatchesPair pins the batch form to the pair form bit
// for bit over a packed centroid column, its cells listed out of order.
func TestBatchLowerBoundMatchesPair(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	for _, kind := range AllKinds() {
		stride := Stride(kind)
		const nc = 17
		col := make([]float64, 0, nc*stride)
		rads := make([]float64, nc)
		for i := 0; i < nc; i++ {
			col = append(col, pack(randDescriptor(rng, kind, false))...)
			rads[i] = rng.Float64() * 3
		}
		rads[3] = 0
		rads[5] = math.Inf(1) // kind-absent cell: bound must clamp to 0
		q := pack(randDescriptor(rng, kind, false))
		cells := make([]int32, nc)
		for i, ci := range rng.Perm(nc) {
			cells[i] = int32(ci)
		}
		out := make([]float64, nc)
		BatchLowerBound(kind, q, col, cells, rads, out)
		for i, ci := range cells {
			want := pairLowerBound(kind, q, col[int(ci)*stride:int(ci+1)*stride], rads[ci])
			if out[i] != want {
				t.Fatalf("kind %d cell %d: batch %.17g != pair %.17g", kind, ci, out[i], want)
			}
			if ci == 5 && out[i] != 0 {
				t.Fatalf("kind %d: infinite-radius cell bound %g, want 0", kind, out[i])
			}
		}
	}
}

// TestHistogramDegenerateBound spells out the zero-mass case analysis
// from the package comment as concrete assertions.
func TestHistogramDegenerateBound(t *testing.T) {
	empty := pack(&ColorHistogram{})
	full := &ColorHistogram{}
	full.Bins[3] = 90000
	fullV := pack(full)

	// Empty member in a cell with non-empty centroid: radius >= 2, so the
	// bound can never exceed any real distance (max distance is 2).
	cent := make([]float64, len(fullV))
	for i := range cent {
		cent[i] = fullV[i] / 2 // mean of full and empty: mass stays positive
	}
	rad := PairDistance(KindHistogram, empty, cent)
	if d := PairDistance(KindHistogram, fullV, cent); d > rad {
		rad = d
	}
	if rad < 1 {
		t.Fatalf("cell with empty member has radius %g; expected a wide cell", rad)
	}
	for _, q := range [][]float64{empty, fullV} {
		lb := pairLowerBound(KindHistogram, q, cent, rad)
		for _, m := range [][]float64{empty, fullV} {
			if d := PairDistance(KindHistogram, q, m); d < lb {
				t.Fatalf("degenerate histogram: distance %g below bound %g", d, lb)
			}
		}
	}

	// Empty query against an all-empty cell: centroid mass 0, distance 0,
	// bound must clamp at 0.
	if lb := pairLowerBound(KindHistogram, empty, empty, 0); lb != 0 {
		t.Fatalf("empty query vs empty centroid: bound %g, want 0", lb)
	}
}
