package features

import (
	"sync"

	"cbvr/internal/imaging"
)

// frameScratch holds the per-frame working memory no descriptor keeps:
// the §4.8 binarised plane and the box pass's row scratch, the region
// labeller's run and union–find slices, the 64×64 Gabor filtering raster,
// the correlogram's row bitmasks, Tamura's integral image and GLCM's
// co-occurrence matrix. Each extractor acquires one for the duration of
// its call, so a steady-state ingest worker or search handler allocates
// none of them per frame.
type frameScratch struct {
	bin, boxTmp imaging.Gray // §4.8: binarised + smoothed plane, box3 scratch
	label       runLabeller
	gaborGray   imaging.Gray
	corr        corrBits
	integral    []uint32 // Tamura: (w+1)×(h+1) summed-area table
	glcm        []uint32 // glcmSize² co-occurrence counts, row-major
}

var frameScratchPool = sync.Pool{New: func() any { return &frameScratch{} }}

// grown returns s with length n, reallocating only when the capacity is
// short; the contents are whatever the last user left.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
