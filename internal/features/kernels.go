// Batched distance kernels over packed descriptor columns.
//
// Descriptors pack into contiguous per-kind float64 columns
// (Descriptor.AppendTo, Stride), and each kind gets a batch kernel that
// computes query-vs-column distances straight into a caller-owned output
// buffer: no per-row dispatch, no per-candidate allocation. BatchDistance
// and PairDistance (kinds.go) pick a kind's kernel from the kind table,
// once per column or pair.
//
// Every kernel is bit-identical to the corresponding DistanceTo: packing
// hoists only the comparand-independent work (probability normalisation,
// uint8 widening), and the kernels keep DistanceTo's operation order and
// associativity exactly (kernels_test.go enforces this per kind,
// including the degenerate zero-mass cases).
//
// Lanes are rows. The five long kinds (histogram, correlogram, Tamura's
// directionality, Gabor, naive) sweep four rows at a time through a 4-row
// sum primitive (l1Sum4, l2Sum4, naiveSum4): on amd64 each SSE2 lane
// carries one row's running sum and runs that row's scalar operation
// sequence (subtract, clear the sign bit or square, add; a correctly
// rounded square root for the naive points) in ascending index order from
// +0, so each lane's sum has exactly the bits of the scalar loop's. Lanes
// cannot be elements: splitting one row's sum into per-lane partial sums
// would reassociate it and change the result in the last bits. The Go
// compiler never contracts a*b+c into a fused multiply-add on amd64 (not
// even at GOAMD64=v3), so the portable loops PairDistance runs and the
// assembly agree at every amd64 level. Each kind finishes a row in Go
// with the same epilogue its pair kernel applies. GLCM (stride 5) and
// regions (stride 3) are too short to gain and stay scalar.
package features

import "math"

// batchKernel sweeps the selected column rows through a row kernel. The
// stride is len(q); the per-row subslice is capped so the row functions'
// reslices keep every index in bounds-checked-once territory.
//
//cbvrvet:noalloc
func batchKernel(q, col []float64, rows []int32, out []float64, row func(q, r []float64) float64) {
	stride := len(q)
	for i, s := range rows {
		off := int(s) * stride
		out[i] = row(q, col[off:off+stride:off+stride])
	}
}

// gather4 points r at the next four selected rows of col (stride values
// each) and returns how many of them are real: past the end of rows the
// last real row is repeated, so every lane reads a valid row and the
// caller keeps only the first n results.
//
//cbvrvet:noalloc
func gather4(r *[4][]float64, col []float64, rows []int32, stride int) int {
	n := min(len(rows), 4)
	for j := range r {
		off := int(rows[min(j, n-1)]) * stride
		r[j] = col[off : off+stride : off+stride]
	}
	return n
}

// l1Row sums |q[i]-r[i]| in ascending index order. The reslice of r to
// len(q) eliminates the bounds check on r[i] inside the loop.
//
//cbvrvet:noalloc
func l1Row(q, r []float64) float64 {
	r = r[:len(q)]
	var sum float64
	for i, qv := range q {
		sum += math.Abs(qv - r[i])
	}
	return sum
}

// l2SumRow accumulates squared differences in ascending index order.
//
//cbvrvet:noalloc
func l2SumRow(q, r []float64) float64 {
	r = r[:len(q)]
	var sum float64
	for i, qv := range q {
		d := qv - r[i]
		sum += d * d
	}
	return sum
}

// l2Row is the L2 distance: l2SumRow, then one square root. The Gabor
// kernel is exactly this at stride 60.
//
//cbvrvet:noalloc
func l2Row(q, r []float64) float64 {
	return math.Sqrt(l2SumRow(q, r))
}

// l2Batch is l2Row over the selected rows.
//
//cbvrvet:noalloc
func l2Batch(q, col []float64, rows []int32, out []float64) {
	var r [4][]float64
	var s [4]float64
	for i := 0; i < len(rows); i += 4 {
		n := gather4(&r, col, rows[i:], len(q))
		l2Sum4(q, &r, 0, &s)
		for j := range n {
			out[i+j] = math.Sqrt(s[j])
		}
	}
}

// histRow is ColorHistogram.DistanceTo over packed vectors: element 0 is
// the histogram mass (the degenerate empty-histogram rule), elements
// 1..256 the bin probabilities compared by L1.
//
//cbvrvet:noalloc
func histRow(q, r []float64) float64 {
	return histFinish(q, r, l1Row(q[1:], r[1:]))
}

// histFinish applies the zero-mass rule to a row whose bin L1 is l1.
//
//cbvrvet:noalloc
func histFinish(q, r []float64, l1 float64) float64 {
	if q[0] == 0 || r[0] == 0 {
		if q[0] == r[0] {
			return 0
		}
		return 2
	}
	return l1
}

// histBatch is histRow over the selected rows.
//
//cbvrvet:noalloc
func histBatch(q, col []float64, rows []int32, out []float64) {
	var r [4][]float64
	var s [4]float64
	for i := 0; i < len(rows); i += 4 {
		n := gather4(&r, col, rows[i:], len(q))
		l1Sum4(q, &r, 1, &s)
		for j := range n {
			out[i+j] = histFinish(q, r[j], s[j])
		}
	}
}

// glcmRow is GLCM.DistanceTo over packed vectors: per-statistic scaled
// differences, squared and summed in vector() order.
//
//cbvrvet:noalloc
func glcmRow(q, r []float64) float64 {
	var sum float64
	for i := 0; i < len(glcmScale); i++ {
		d := (q[i] - r[i]) / glcmScale[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// Tamura kernel scales, mirroring Tamura.DistanceTo's constants.
const (
	tamuraCoarseScale   = 20000
	tamuraContrastScale = 128
)

// tamuraRow is Tamura.DistanceTo over packed vectors: scaled coarseness
// and contrast squared-sum plus half the L1 between the pre-normalised
// directionality distributions (elements 2..17).
//
//cbvrvet:noalloc
func tamuraRow(q, r []float64) float64 {
	return tamuraFinish(q, r, l1Row(q[2:TamuraVectorLen], r[2:TamuraVectorLen]))
}

// tamuraFinish adds the scaled coarseness and contrast L2 to half the
// directionality L1 dl1.
//
//cbvrvet:noalloc
func tamuraFinish(q, r []float64, dl1 float64) float64 {
	dc := (q[0] - r[0]) / tamuraCoarseScale
	dk := (q[1] - r[1]) / tamuraContrastScale
	sum := dc*dc + dk*dk
	return math.Sqrt(sum) + dl1/2
}

// tamuraBatch is tamuraRow over the selected rows.
//
//cbvrvet:noalloc
func tamuraBatch(q, col []float64, rows []int32, out []float64) {
	var r [4][]float64
	var s [4]float64
	for i := 0; i < len(rows); i += 4 {
		n := gather4(&r, col, rows[i:], len(q))
		l1Sum4(q, &r, 2, &s)
		for j := range n {
			out[i+j] = tamuraFinish(q, r[j], s[j])
		}
	}
}

// correlogramCells is the correlogram's cell count, the divisor of its
// mean absolute difference.
const correlogramCells = CorrelogramBins * CorrelogramMaxDistance

// correlogramRow is Correlogram.DistanceTo over packed vectors: the cells
// are flattened in DistanceTo's accumulation order, so the plain L1 sum
// divided by the cell count reproduces the mean absolute difference.
//
//cbvrvet:noalloc
func correlogramRow(q, r []float64) float64 {
	return l1Row(q, r) / correlogramCells
}

// correlogramBatch is correlogramRow over the selected rows.
//
//cbvrvet:noalloc
func correlogramBatch(q, col []float64, rows []int32, out []float64) {
	var r [4][]float64
	var s [4]float64
	for i := 0; i < len(rows); i += 4 {
		n := gather4(&r, col, rows[i:], len(q))
		l1Sum4(q, &r, 0, &s)
		for j := range n {
			out[i+j] = s[j] / correlogramCells
		}
	}
}

// regionsRow is RegionStats.DistanceTo over packed vectors
// [major, regions, holes]; the counts are exact in float64.
//
//cbvrvet:noalloc
func regionsRow(q, r []float64) float64 {
	return math.Abs(q[0]-r[0]) + 0.1*math.Abs(q[1]-r[1]) + 0.05*math.Abs(q[2]-r[2])
}

// naiveRow is NaiveSignature.DistanceTo over packed vectors: per sample
// point the Euclidean RGB distance, summed over the 25 points.
//
//cbvrvet:noalloc
func naiveRow(q, r []float64) float64 {
	r = r[:len(q)]
	var sum float64
	for i := 0; i+2 < len(q); i += 3 {
		d0 := q[i] - r[i]
		d1 := q[i+1] - r[i+1]
		d2 := q[i+2] - r[i+2]
		sum += math.Sqrt(d0*d0 + d1*d1 + d2*d2)
	}
	return sum
}

// naiveBatch is naiveRow over the selected rows.
//
//cbvrvet:noalloc
func naiveBatch(q, col []float64, rows []int32, out []float64) {
	var r [4][]float64
	var s [4]float64
	for i := 0; i < len(rows); i += 4 {
		n := gather4(&r, col, rows[i:], len(q))
		naiveSum4(q, &r, &s)
		copy(out[i:i+n], s[:n])
	}
}
