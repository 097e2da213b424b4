// Package similarity provides the distance primitives and score machinery
// for the CBVR retrieval pipeline: the dynamic-programming sequence
// alignment the paper uses to compare a query's feature-vector sequence
// with each stored video ("We use a dynamic programming approach to
// compute the similarity between the feature vectors for the query and
// feature vectors in the feature database"), score normalisation, and the
// rank fusion behind the "Combined" column of Table 1.
package similarity

import (
	"fmt"
	"math"
	"sort"
)

func mustSameLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("similarity: vector length mismatch %d != %d", a, b))
	}
}

// DTW computes the dynamic-programming alignment cost between two
// sequences of lengths n and m with the classic time-warping recurrence
//
//	D(i,j) = cost(i,j) + min(D(i-1,j), D(i,j-1), D(i-1,j-1))
//
// normalised by the path-length upper bound (n+m) so costs are comparable
// across sequence lengths. Empty sequences yield +Inf against non-empty
// ones and 0 against each other.
func DTW(n, m int, cost func(i, j int) float64) float64 {
	if n == 0 && m == 0 {
		return 0
	}
	if n == 0 || m == 0 {
		return math.Inf(1)
	}
	prev := make([]float64, m+1)
	cur := make([]float64, m+1)
	for j := 1; j <= m; j++ {
		prev[j] = math.Inf(1)
	}
	for i := 1; i <= n; i++ {
		cur[0] = math.Inf(1)
		for j := 1; j <= m; j++ {
			best := prev[j-1] // diagonal
			if prev[j] < best {
				best = prev[j]
			}
			if cur[j-1] < best {
				best = cur[j-1]
			}
			if i == 1 && j == 1 {
				best = 0
			}
			cur[j] = cost(i-1, j-1) + best
		}
		prev, cur = cur, prev
	}
	return prev[m] / float64(n+m)
}

// Normalize min-max rescales scores into [0,1] in place and returns the
// slice. Constant score lists become all zeros (every candidate equally
// good). Infinite entries map to 1.
func Normalize(scores []float64) []float64 {
	m := NewMinMaxScaler()
	for _, s := range scores {
		m.Observe(s)
	}
	for i, s := range scores {
		scores[i] = m.Scale(s)
	}
	return scores
}

// MinMaxScaler is the streaming form of Normalize: it accumulates the
// finite min/max of a score population (possibly shard by shard, joined
// afterwards) and then rescales individual values with exactly Normalize's
// per-element arithmetic. This lets the sharded search pipeline min-max
// normalise per-feature distances without ever materialising one
// []float64 per feature per query — each shard observes its own distances
// as it computes them, the shards' scalers are joined, and the fused score
// is produced candidate by candidate.
type MinMaxScaler struct {
	Lo, Hi float64
}

// NewMinMaxScaler returns a scaler that has observed nothing (Lo > Hi).
func NewMinMaxScaler() MinMaxScaler {
	return MinMaxScaler{Lo: math.Inf(1), Hi: math.Inf(-1)}
}

// Observe folds one score into the running min/max. Infinities and NaNs
// are ignored, matching Normalize.
func (m *MinMaxScaler) Observe(v float64) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return
	}
	if v < m.Lo {
		m.Lo = v
	}
	if v > m.Hi {
		m.Hi = v
	}
}

// Join widens m to cover everything o observed (shard merge).
func (m *MinMaxScaler) Join(o MinMaxScaler) {
	if o.Lo < m.Lo {
		m.Lo = o.Lo
	}
	if o.Hi > m.Hi {
		m.Hi = o.Hi
	}
}

// Scale maps one observed value into [0,1] with Normalize's exact
// per-element rules: non-finite values map to 1, an empty or constant
// population maps finite values to 1 resp. 0, and results are clamped.
func (m MinMaxScaler) Scale(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 1
	}
	if m.Lo > m.Hi { // nothing finite observed
		return 1
	}
	// Compute with halved operands so hi-lo cannot overflow to +Inf for
	// extreme inputs, and clamp for safety.
	span2 := m.Hi/2 - m.Lo/2
	if span2 == 0 {
		return 0
	}
	s := (v/2 - m.Lo/2) / span2
	if s < 0 {
		s = 0
	} else if s > 1 {
		s = 1
	}
	return s
}

// Fuse combines k normalised per-feature distance lists over the same n
// candidates into a single combined distance per candidate, as a weighted
// mean. weights == nil means equal weights. It panics on ragged input.
func Fuse(lists [][]float64, weights []float64) []float64 {
	if len(lists) == 0 {
		return nil
	}
	n := len(lists[0])
	for _, l := range lists {
		mustSameLen(len(l), n)
	}
	ws := FusionWeights(weights, len(lists))
	out := make([]float64, n)
	for li, l := range lists {
		w := ws[li]
		if w == 0 {
			continue
		}
		for i, v := range l {
			out[i] += w * v
		}
	}
	return out
}

// FusionWeights resolves per-feature fusion weights to the normalised
// (sum-to-one) form Fuse applies: nil means equal weights, a length
// mismatch panics, and an all-zero weight vector yields all zeros (every
// candidate fuses to 0). Both the batch Fuse and the streamed per-shard
// fusion in the search pipeline share this resolution so their weighted
// sums are computed from identical coefficients.
func FusionWeights(weights []float64, n int) []float64 {
	if weights == nil {
		weights = make([]float64, n)
		for i := range weights {
			weights[i] = 1
		}
	}
	mustSameLen(len(weights), n)
	var wsum float64
	for _, w := range weights {
		wsum += w
	}
	out := make([]float64, n)
	if wsum == 0 {
		return out
	}
	for i, w := range weights {
		out[i] = w / wsum
	}
	return out
}

// RRFConstant is the standard reciprocal-rank-fusion damping constant.
const RRFConstant = 60

// RRF combines k per-feature distance lists over the same n candidates by
// reciprocal rank fusion: each list contributes 1/(C + rank) per
// candidate. Unlike score fusion, RRF is insensitive to each feature's
// distance scale and robust to individually weak features, which is what
// lets the combined run dominate every single feature. The returned values
// are negated fused scores so that smaller still means better, matching
// the distance convention.
func RRF(lists [][]float64, c float64) []float64 {
	if len(lists) == 0 {
		return nil
	}
	if c <= 0 {
		c = RRFConstant
	}
	n := len(lists[0])
	out := make([]float64, n)
	idx := make([]int, n)
	for _, l := range lists {
		mustSameLen(len(l), n)
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return l[idx[a]] < l[idx[b]] })
		for rank, i := range idx {
			out[i] -= 1 / (c + float64(rank+1))
		}
	}
	return out
}

// RRFDistance maps a negated RRF score over n lists with the standard
// constant (what RRF returns) to a fixed-scale distance in [0, 1): 0 for
// a candidate ranked first in every list, rising toward 1 as its ranks
// grow. It depends on the candidate's own ranks only, so candidates
// ranked below it never move it.
func RRFDistance(neg float64, n int) float64 {
	return max(0, 1+neg*(RRFConstant+1)/float64(n))
}

// Ranked pairs an ID with a distance for sorting.
type Ranked struct {
	ID       int64
	Distance float64
}

// Rank sorts (id, distance) pairs ascending by distance, breaking ties by
// ID for determinism.
func Rank(ids []int64, dists []float64) []Ranked {
	mustSameLen(len(ids), len(dists))
	out := make([]Ranked, len(ids))
	for i := range ids {
		out[i] = Ranked{ID: ids[i], Distance: dists[i]}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].ID < out[j].ID
	})
	return out
}
