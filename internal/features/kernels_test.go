package features

import (
	"math/rand"
	"slices"
	"testing"
)

// randSet builds one descriptor of every kind with pseudo-random but
// plausible field values (plus the degenerate variants the distance
// functions special-case) so the kernel equivalence check covers real
// code paths without paying for extraction.
func randDescriptor(rng *rand.Rand, kind Kind, degenerate bool) Descriptor {
	switch kind {
	case KindHistogram:
		h := &ColorHistogram{}
		if !degenerate {
			for i := range h.Bins {
				h.Bins[i] = rng.Intn(900)
			}
		}
		return h
	case KindGLCM:
		return &GLCM{
			PixelCounter: 180000,
			ASM:          rng.Float64(),
			Contrast:     rng.Float64() * 20000,
			Correlation:  rng.Float64() * 0.002,
			IDM:          rng.Float64(),
			Entropy:      rng.Float64() * 11,
		}
	case KindGabor:
		g := &Gabor{}
		for i := range g.Vec {
			g.Vec[i] = rng.NormFloat64()
		}
		return g
	case KindTamura:
		t := &Tamura{Coarseness: rng.Float64() * 30000, Contrast: rng.Float64() * 256}
		if !degenerate {
			for i := range t.Directionality {
				t.Directionality[i] = rng.Float64() * 1000
			}
		}
		return t
	case KindCorrelogram:
		c := &Correlogram{}
		for b := range c.Cor {
			for d := range c.Cor[b] {
				c.Cor[b][d] = rng.Float64()
			}
		}
		return c
	case KindRegions:
		return &RegionStats{Regions: rng.Intn(300), Holes: rng.Intn(100), Major: rng.Intn(8)}
	case KindNaive:
		n := &NaiveSignature{}
		for i := range n.Sig {
			n.Sig[i] = [3]uint8{uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256))}
		}
		return n
	default:
		panic("unknown kind")
	}
}

// TestKernelsBitIdenticalToDistanceTo is the kernel layer's contract: for
// every kind, PairDistance over packed vectors equals DistanceTo exactly
// (==, not within epsilon), including the zero-mass histogram and empty
// Tamura directionality edges.
func TestKernelsBitIdenticalToDistanceTo(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, kind := range AllKinds() {
		for trial := 0; trial < 50; trial++ {
			// Degenerate on some trials, on either or both sides.
			a := randDescriptor(rng, kind, trial%7 == 3)
			b := randDescriptor(rng, kind, trial%5 == 2)
			want, err := a.DistanceTo(b)
			if err != nil {
				t.Fatalf("%v: DistanceTo: %v", kind, err)
			}
			pa := a.AppendTo(nil)
			pb := b.AppendTo(nil)
			if len(pa) != Stride(kind) || len(pb) != Stride(kind) {
				t.Fatalf("%v: AppendTo emitted %d/%d values, stride is %d", kind, len(pa), len(pb), Stride(kind))
			}
			if got := PairDistance(kind, pa, pb); got != want {
				t.Fatalf("%v trial %d: PairDistance = %.17g, DistanceTo = %.17g", kind, trial, got, want)
			}
			// Symmetry of the packing: reversed operands must also agree.
			wantRev, _ := b.DistanceTo(a)
			if got := PairDistance(kind, pb, pa); got != wantRev {
				t.Fatalf("%v trial %d reversed: PairDistance = %.17g, DistanceTo = %.17g", kind, trial, got, wantRev)
			}
		}
	}
}

// TestBatchDistanceMatchesPairs checks every batch kernel against
// per-pair calls, in the shape scanShard drives: an arbitrary selection of
// column rows into a flat output buffer. The 4-row kernels put selected
// rows i..i+3 in four lanes and pad a short last block, so the selections
// cover every length 0–9 (no block, each tail length, one and two whole
// blocks), 33 and 257; a row repeated within a block; the column
// reversed; and a degenerate descriptor (zero-mass histogram, empty
// Tamura directionality) in each of the four lane positions — all against
// a normal and a degenerate query. The histogram's odd stride of 257
// leaves every other row off 16-byte alignment. Seeded mutations it
// catches: two lane pointers swapped, a tail block skipped or its padding
// lanes written out, a lane's epilogue (zero-mass rule, correlogram
// divide, square root) dropped.
func TestBatchDistanceMatchesPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 300
	degenerate := func(row int) bool { return row%10 == 3 }
	var sels [][]int32
	perm := func(m int) []int32 {
		sel := make([]int32, m)
		for i, r := range rng.Perm(n)[:m] {
			sel[i] = int32(r)
		}
		return sel
	}
	for m := 0; m <= 9; m++ {
		sels = append(sels, perm(m))
	}
	sels = append(sels, perm(33), perm(257))
	sels = append(sels, []int32{5, 5, 5, 5, 5}, []int32{8, 1, 8, 2, 1, 8})
	reversed := make([]int32, n)
	for i := range reversed {
		reversed[i] = int32(n - 1 - i)
	}
	sels = append(sels, reversed)
	for p := 0; p < 4; p++ {
		sel := []int32{0, 1, 2, 4, 5}
		sel[p] = 13 // degenerate in lane p of a full block, then a tail
		sels = append(sels, sel, append(slices.Clone(sel[:4]), 23))
	}
	sels = append(sels, []int32{3, 13, 23, 33, 43})

	for _, kind := range AllKinds() {
		stride := Stride(kind)
		col := make([]float64, 0, n*stride)
		packed := make([][]float64, n)
		for i := 0; i < n; i++ {
			start := len(col)
			col = randDescriptor(rng, kind, degenerate(i)).AppendTo(col)
			packed[i] = col[start:len(col):len(col)]
		}
		for qi, degenerateQuery := range []bool{false, true} {
			q := randDescriptor(rng, kind, degenerateQuery).AppendTo(nil)
			for si, rows := range sels {
				// One slot past the selection must stay untouched.
				out := make([]float64, len(rows)+1)
				out[len(rows)] = -1
				BatchDistance(kind, q, col, rows, out[:len(rows)])
				for i, s := range rows {
					if want := PairDistance(kind, q, packed[s]); out[i] != want {
						t.Fatalf("%v query %d selection %d (len %d): out[%d] (row %d) = %.17g, pair = %.17g",
							kind, qi, si, len(rows), i, s, out[i], want)
					}
				}
				if out[len(rows)] != -1 {
					t.Fatalf("%v query %d selection %d: wrote past the selection", kind, qi, si)
				}
			}
		}
	}
}

// TestKernelsOnExtractedDescriptors runs the equivalence over descriptors
// extracted from real rasters, so pack+kernel is validated against the
// values the engine actually stores (not just synthetic field fills).
func TestKernelsOnExtractedDescriptors(t *testing.T) {
	imA := randomFrame(3, 97, 73)
	imB := randomFrame(9, 64, 64)
	setA, setB := NewPlanes(imA).ExtractAll(), NewPlanes(imB).ExtractAll()
	for _, kind := range AllKinds() {
		da, db := setA.Get(kind), setB.Get(kind)
		want, err := da.DistanceTo(db)
		if err != nil {
			t.Fatal(err)
		}
		if got := PairDistance(kind, da.AppendTo(nil), db.AppendTo(nil)); got != want {
			t.Fatalf("%v: kernel %.17g != DistanceTo %.17g", kind, got, want)
		}
	}
}
