package core

import (
	"sync"
	"sync/atomic"

	"cbvr/internal/features"
	"cbvr/internal/imaging"
)

// rasterPool recycles 300×300 analysis rasters across every run of the
// key-frame pipeline (ingest, re-index, query-by-clip). Each source frame
// needs one raster for the imaging.RescaleInto analysis rescale; non-key
// frames hand theirs back through the key-frame extractor's Recycle hook
// as soon as selection drops them, and key frames hand theirs back once
// feature extraction finishes. In steady state the pool therefore holds roughly
// (workers + in-flight jobs) rasters and decoding allocates no raster
// memory per frame, regardless of clip length.
//
// put ignores rasters the pool did not create (frames that were already
// analysis-sized are passed through untouched and owned by the decoder),
// so callers can recycle unconditionally.
type rasterPool struct {
	mu     sync.Mutex
	free   []*imaging.Image
	owned  map[*imaging.Image]struct{}
	allocs atomic.Int64 // rasters ever created; test observability
}

func newRasterPool() *rasterPool {
	return &rasterPool{owned: make(map[*imaging.Image]struct{})}
}

// get returns a pool-owned analysis-sized raster, reusing a free one when
// possible. The contents are unspecified; callers overwrite every pixel
// (RescaleInto does).
func (p *rasterPool) get() *imaging.Image {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		im := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return im
	}
	im := imaging.New(features.AnalysisSize, features.AnalysisSize)
	p.owned[im] = struct{}{}
	p.mu.Unlock()
	p.allocs.Add(1)
	return im
}

// put returns a raster to the pool. Rasters not created by get (nil, or a
// caller-owned frame that happened to be analysis-sized) are ignored.
func (p *rasterPool) put(im *imaging.Image) {
	if im == nil {
		return
	}
	p.mu.Lock()
	if _, ok := p.owned[im]; ok {
		p.free = append(p.free, im)
	}
	p.mu.Unlock()
}
