// Per-kind lower-bound helpers for metric-space candidate pruning.
//
// The coarse cell index (internal/core cells.go) groups packed arena rows
// into cells, each carrying a per-kind centroid vector and a per-kind
// radius (an upper bound on any member's distance to the centroid in that
// kind's own metric). For a query q, centroid c and radius r the triangle
// inequality then gives
//
//	d(q, x) >= d(q, c) - r   for every member x of the cell,
//
// so a whole cell can be skipped (or deferred) when that bound already
// exceeds the worst distance a search still cares about. The bound is
// only sound if the kind's distance satisfies the triangle inequality on
// packed vectors. The kind table's metric flag records that per kind
// (BoundSupported reads it), so a future non-metric kind is marked false
// and fails safe instead of silently over-pruning. It holds for all seven
// kinds:
//
//	glcm            weighted (per-statistic scaled) L2 — a metric.
//	gabor           plain L2 at stride 60 — a metric.
//	tamura          scaled L2 over (coarseness, contrast) plus half the
//	                L1 between directionality distributions; both terms
//	                are metrics (packing pre-normalises the bins), and a
//	                sum of metrics is a metric.
//	histogram       L1 between bin distributions, plus the degenerate
//	                zero-mass rule. See histLowerBoundSafe below: every
//	                degenerate combination yields a bound <= the true
//	                distance, so the rule never over-prunes.
//	autocorrelogram L1 scaled by the constant cell count — a metric.
//	regions         weighted L1 over three counts — a metric.
//	naive           sum over 25 sample points of the Euclidean RGB
//	                distance — a sum of metrics.
//
// The histogram degenerate rule (DistanceTo returns 0 for two empty
// histograms, 2 for empty-vs-non-empty) deserves the explicit case
// analysis the bound's soundness rests on:
//
//   - member x empty, centroid c non-empty: d(x,c) = 2, so the cell's
//     radius is >= 2 and the bound is d(q,c) - r <= d(q,c) - 2 <= 0 —
//     never above any distance.
//   - query q empty, c non-empty: d(q,c) = 2; a non-empty member has
//     d(q,x) = 2 >= 2 - r, an empty member is covered by the previous
//     case (r >= 2).
//   - q empty and c empty: d(q,c) = 0, the bound is <= 0.
//
// Centroids are per-kind arithmetic means of member vectors, which for
// the histogram keeps the leading mass element positive whenever any
// member is non-empty, so the case split above is exhaustive.
package features

import "math"

// boundSlack makes the triangle-inequality bound conservative in
// floating point, not just in exact arithmetic. The distance kernels
// accumulate up to Stride(kind) terms, so each computed distance carries
// a relative rounding error of at most ~stride·2⁻⁵³ ≈ 3·10⁻¹⁴; when
// d(q,cent) and rad are large and nearly cancel, the raw difference can
// exceed the true bound by error proportional to their MAGNITUDES, not to
// the difference (observed in practice as 1-ulp violations that would let
// the "exact" single-kind sweep skip a boundary-tied row). Subtracting
// slack·(d + rad) dominates that error with two orders of magnitude to
// spare while costing pruning power only in the last ~12 digits.
const boundSlack = 1e-12

// BatchLowerBound writes out[i], a lower bound on the kind's distance
// between the packed query q and any point within radius rads[cells[i]]
// of cell cells[i]'s centroid, for the listed cells of the packed centroid
// column (stride Stride(kind), one row per cell): max(0, d(q, cent) -
// rad), made floating-point-safe by boundSlack. It is BatchDistance's
// sweep over the centroid rows, whose bits equal PairDistance's, followed
// by the bound. Callers must only rely on it for kinds where
// BoundSupported reports true.
//
//cbvrvet:noalloc
func BatchLowerBound(kind Kind, q, centCol []float64, cells []int32, rads, out []float64) {
	BatchDistance(kind, q, centCol, cells, out)
	for i, ci := range cells {
		d, r := out[i], rads[ci]
		out[i] = math.Max(d-r-boundSlack*(d+r), 0)
	}
}
