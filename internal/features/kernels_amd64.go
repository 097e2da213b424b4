//go:build amd64 && !purego

package features

// The 4-row sum primitives in kernels_amd64.s: one SSE2 lane per row,
// rows 0 and 1 in one register and rows 2 and 3 in another, each lane
// running the scalar loop's operation sequence (kernels.go header). n
// counts elements for the L1 and L2 sums and RGB points for the naive
// one; s receives the four sums.
//
//go:noescape
func l1Sum4SSE2(q, r0, r1, r2, r3 *float64, n int, s *[4]float64)

//go:noescape
func l2Sum4SSE2(q, r0, r1, r2, r3 *float64, n int, s *[4]float64)

//go:noescape
func naiveSum4SSE2(q, r0, r1, r2, r3 *float64, n int, s *[4]float64)

// l1Sum4 sets s[j] to the L1 sum of q and lane row r[j] over elements
// [lo, len(q)).
//
//cbvrvet:noalloc
func l1Sum4(q []float64, r *[4][]float64, lo int, s *[4]float64) {
	q0, r0, r1, r2, r3 := lanes4(q, r, lo)
	l1Sum4SSE2(q0, r0, r1, r2, r3, len(q)-lo, s)
}

// l2Sum4 sets s[j] to the squared-L2 sum of q and lane row r[j] over
// elements [lo, len(q)).
//
//cbvrvet:noalloc
func l2Sum4(q []float64, r *[4][]float64, lo int, s *[4]float64) {
	q0, r0, r1, r2, r3 := lanes4(q, r, lo)
	l2Sum4SSE2(q0, r0, r1, r2, r3, len(q)-lo, s)
}

// naiveSum4 sets s[j] to naiveRow(q, r[j]).
//
//cbvrvet:noalloc
func naiveSum4(q []float64, r *[4][]float64, s *[4]float64) {
	q0, r0, r1, r2, r3 := lanes4(q, r, 0)
	naiveSum4SSE2(q0, r0, r1, r2, r3, len(q)/3, s)
}

// lanes4 returns the addresses of element lo of q and of the four lane
// rows, after the checks the assembly skips: the span [lo, len(q)) is
// not empty and every row is at least as long as q.
//
//cbvrvet:noalloc
func lanes4(q []float64, r *[4][]float64, lo int) (q0, r0, r1, r2, r3 *float64) {
	last := len(q) - 1
	_, _, _, _ = r[0][last], r[1][last], r[2][last], r[3][last]
	return &q[lo], &r[0][lo], &r[1][lo], &r[2][lo], &r[3][lo]
}
