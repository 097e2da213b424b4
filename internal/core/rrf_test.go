package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"cbvr/internal/similarity"
)

// TestRRFScoresMatchReference pins the radix rank to the reference
// fusion: rrfScores over candidates in arbitrary order must equal
// similarity.RRF over the same distances listed in key-frame ID order,
// bit for bit. The columns plant what a comparator-free sort
// can get wrong: exact ties (ranked by ID), a column of one repeated value
// (every radix pass skipped), +0 beside -0 (equal under <, so also ranked
// by ID), missingDistance rows, and IDs spread over many bytes. The sizes
// straddle the 256-entry digit range.
func TestRRFScoresMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 3, 255, 256, 257, 4096} {
		for _, nk := range []int{1, 2, 7} {
			all := make([]scored, n)
			seen := make(map[int64]bool, n)
			for i := range all {
				id := rng.Int63n(1 << 40)
				for seen[id] {
					id = rng.Int63n(1 << 40)
				}
				seen[id] = true
				d := make([]float64, nk)
				for ki := range d {
					d[ki] = plantedDistance(rng, ki)
				}
				all[i] = scored{id: id, d: d}
			}

			byID := make([]scored, n)
			copy(byID, all)
			sort.Slice(byID, func(a, b int) bool { return byID[a].id < byID[b].id })
			lists := make([][]float64, nk)
			for ki := range lists {
				lists[ki] = make([]float64, n)
				for i, c := range byID {
					lists[ki][i] = c.d[ki]
				}
			}
			ref := similarity.RRF(lists, similarity.RRFConstant)
			want := make(map[int64]float64, n)
			for i, c := range byID {
				want[c.id] = ref[i]
			}

			for _, workers := range []int{1, 4} {
				got := rrfScores(all, nk, workers, new(rrfScratch))
				for g, c := range all {
					if got[g] != want[c.id] {
						t.Fatalf("n=%d kinds=%d workers=%d: candidate %d (id %d, d %v) scores %.17g, reference %.17g",
							n, nk, workers, g, c.id, c.d, got[g], want[c.id])
					}
				}
			}
		}
	}
}

// plantedDistance draws kind ki's distance for one candidate, cycling
// through four column shapes: continuous with planted ties, zeros of both
// signs and missingDistance rows; one value for every row; +0 and -0
// beside continuous values; a small value set (exact ties) with negative
// values and missingDistance rows.
func plantedDistance(rng *rand.Rand, ki int) float64 {
	switch ki % 4 {
	case 0:
		switch rng.Intn(10) {
		case 0:
			return 0.5
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return 0
		case 3:
			return missingDistance
		}
		return rng.Float64() * 3
	case 1:
		return 1.25
	case 2:
		switch rng.Intn(3) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		}
		return rng.Float64()
	default:
		switch rng.Intn(10) {
		case 0:
			return missingDistance
		case 1:
			return -float64(rng.Intn(4))
		}
		return float64(rng.Intn(12)) / 7
	}
}
