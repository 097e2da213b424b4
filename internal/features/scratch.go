package features

import (
	"sync"

	"cbvr/internal/imaging"
)

// frameScratch holds the per-frame working rasters of the Gabor and
// region extractors that no descriptor keeps: the §4.8 binarised plane
// and the box pass's row scratch, the region labeller's run and
// union–find slices, and the 64×64 Gabor filtering raster. Each
// extractor acquires one for the duration of its call, so a steady-state
// ingest worker or search handler allocates none of them per frame.
type frameScratch struct {
	bin, boxTmp imaging.Gray // §4.8: binarised + smoothed plane, box3 scratch
	label       runLabeller
	gaborGray   imaging.Gray
}

var frameScratchPool = sync.Pool{New: func() any { return &frameScratch{} }}
