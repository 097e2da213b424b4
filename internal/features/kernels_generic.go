//go:build !amd64 || purego

package features

// l1Sum4 sets s[j] to the L1 sum of q and lane row r[j] over elements
// [lo, len(q)), with the portable per-row loop.
//
//cbvrvet:noalloc
func l1Sum4(q []float64, r *[4][]float64, lo int, s *[4]float64) {
	for j := range r {
		s[j] = l1Row(q[lo:], r[j][lo:])
	}
}

// l2Sum4 sets s[j] to the squared-L2 sum of q and lane row r[j] over
// elements [lo, len(q)), with the portable per-row loop.
//
//cbvrvet:noalloc
func l2Sum4(q []float64, r *[4][]float64, lo int, s *[4]float64) {
	for j := range r {
		s[j] = l2SumRow(q[lo:], r[j][lo:])
	}
}

// naiveSum4 sets s[j] to naiveRow(q, r[j]) with the portable per-row
// loop.
//
//cbvrvet:noalloc
func naiveSum4(q []float64, r *[4][]float64, s *[4]float64) {
	for j := range r {
		s[j] = naiveRow(q, r[j])
	}
}
