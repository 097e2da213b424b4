// Batched distance kernels over packed descriptor columns.
//
// The search scan's cost model changed three times: PR 1 parallelised it,
// PR 2 made extraction cheap, and what remained was memory layout — every
// candidate×kind paid an interface-dispatched DistanceTo call chasing a
// heap-allocated descriptor. The kernels here close that gap: descriptors
// pack into contiguous per-kind float64 columns (Descriptor.AppendTo,
// Stride), and each kind gets a batch kernel that computes
// query-vs-column distances straight into a caller-owned output buffer —
// no per-row dispatch, no per-candidate allocation, branch-free inner
// loops over contiguous memory (math.Abs compiles to a sign-bit clear).
// BatchDistance and PairDistance (kinds.go) pick a kind's kernel from the
// kind table, once per column or pair.
//
// Every kernel is bit-identical to the corresponding DistanceTo: packing
// hoists only the comparand-independent work (probability normalisation,
// uint8 widening), and the kernels keep DistanceTo's operation order and
// associativity exactly (kernels_test.go enforces this per kind,
// including the degenerate zero-mass cases).
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

// BatchL2 computes out[i] = the L2 distance between q and row rows[i] of
// col (stride len(q)). The Gabor kernel is exactly this at stride 60.
//
//cbvrvet:noalloc
func BatchL2(q, col []float64, rows []int32, out []float64) {
	batchKernel(q, col, rows, out, l2Row)
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

// l2Row accumulates squared differences in ascending index order, then
// takes one square root.
//
//cbvrvet:noalloc
func l2Row(q, r []float64) float64 {
	r = r[:len(q)]
	var sum float64
	for i, qv := range q {
		d := qv - r[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// histRow is ColorHistogram.DistanceTo over packed vectors: element 0 is
// the histogram mass (the degenerate empty-histogram rule), elements
// 1..256 the bin probabilities compared by L1.
//
//cbvrvet:noalloc
func histRow(q, r []float64) float64 {
	if q[0] == 0 || r[0] == 0 {
		if q[0] == r[0] {
			return 0
		}
		return 2
	}
	return l1Row(q[1:], r[1:])
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
// directionality distributions.
//
//cbvrvet:noalloc
func tamuraRow(q, r []float64) float64 {
	dc := (q[0] - r[0]) / tamuraCoarseScale
	dk := (q[1] - r[1]) / tamuraContrastScale
	sum := dc*dc + dk*dk
	return math.Sqrt(sum) + l1Row(q[2:2+TamuraDirBins], r[2:2+TamuraDirBins])/2
}

// correlogramRow is Correlogram.DistanceTo over packed vectors: the cells
// are flattened in DistanceTo's accumulation order, so the plain L1 sum
// divided by the cell count reproduces the mean absolute difference.
//
//cbvrvet:noalloc
func correlogramRow(q, r []float64) float64 {
	return l1Row(q, r) / (CorrelogramBins * CorrelogramMaxDistance)
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
