package features

import (
	"sync"

	"cbvr/internal/imaging"
)

// Planes holds the per-frame analysis rasters every extractor consumes,
// computed exactly once: one rescale to the 300×300 analysis raster, one
// gray conversion, one HSV quantisation pass and one histogram pass.
// ExtractAll and the per-kind ExtractWith / Extract*With entry points then
// reuse the shared planes instead of each rescaling and converting the
// frame again. The descriptors are bit-identical to the retained naive
// reference (ExtractAllReference) — see shared_test.go.
//
// Planes own every buffer they hold, the analysis raster included, so
// pooled planes (AcquireSourcePlanes) compute a frame with no per-frame
// raster allocation. Every descriptor copies out of the planes.
type Planes struct {
	// Analysis is the 300×300 analysis raster: the frame itself when it is
	// an RGB raster that already has analysis dimensions, the planes' own
	// raster otherwise.
	Analysis *imaging.Image
	// Gray is the BT.601 luma plane of Analysis. Consumed by GLCM,
	// Tamura, Gabor (via a further 64×64 rescale) and region growing.
	Gray *imaging.Gray
	// Quant is the 64-cell HSV-quantised plane of Analysis (row-major,
	// len AnalysisSize²). Consumed by the auto colour correlogram.
	Quant []uint8
	// GrayHist is the 256-bin histogram of Gray — the §4.2 range-finder
	// input, equal to Analysis.GrayHistogram().
	GrayHist [256]int

	raster imaging.Image // backing buffer of Analysis when it is a rescale
}

// NewPlanes computes the shared analysis planes for a frame.
func NewPlanes(im *imaging.Image) *Planes {
	p := &Planes{}
	p.reset(im.Source())
	return p
}

// planesPool recycles Planes whose raster, Gray and Quant buffers are
// already analysis-sized.
var planesPool = sync.Pool{New: func() any { return &Planes{} }}

// AcquireSourcePlanes computes the planes of a decoded frame into pooled
// buffers: a decoder's Y'CbCr planes are rescaled straight into the
// pooled raster, converting only the pixels it samples. The returned
// planes are valid until Release; the extracted Sets stay valid after it
// (see the pool-aliasing tests in planes_pool_test.go).
func AcquireSourcePlanes(src imaging.Source) *Planes {
	p := planesPool.Get().(*Planes)
	p.reset(src)
	return p
}

// AcquirePlanes is AcquireSourcePlanes for an RGB frame.
func AcquirePlanes(im *imaging.Image) *Planes { return AcquireSourcePlanes(im.Source()) }

// Release returns the planes' buffers to the pool. The planes must not be
// used afterwards.
func (p *Planes) Release() {
	p.Analysis = nil
	planesPool.Put(p)
}

// reset recomputes every plane for a frame, reusing buffers in place.
func (p *Planes) reset(src imaging.Source) {
	a := src.RGB()
	if a == nil || a.W != AnalysisSize || a.H != AnalysisSize {
		a = src.RescaleInto(&p.raster, AnalysisSize, AnalysisSize)
	}
	n := a.W * a.H
	p.Analysis = a
	if p.Gray == nil {
		p.Gray = &imaging.Gray{}
	}
	a.ToGrayInto(p.Gray)
	p.Quant = grown(p.Quant, n)
	p.GrayHist = p.Gray.Histogram()
	for i, pi := 0, 0; i < n; i, pi = i+1, pi+3 {
		p.Quant[i] = uint8(QuantizeHSV(a.Pix[pi], a.Pix[pi+1], a.Pix[pi+2]))
	}
}

// ExtractAll computes all seven descriptors from already-computed planes.
func (p *Planes) ExtractAll() *Set {
	return p.ExtractAllWithNaive(nil)
}

// ExtractAllWithNaive computes the other six descriptors from the planes
// and installs a precomputed naive signature instead of sampling it again.
// The key-frame pipeline passes the §4.1 selection-time signature, which
// features.NaiveOf computed from the same frame, so the resulting Set is
// bit-identical to ExtractAll's. A nil sig is sampled from the planes like
// every other kind.
func (p *Planes) ExtractAllWithNaive(sig *NaiveSignature) *Set {
	s := &Set{Naive: sig}
	for k := range kindTable {
		if kindTable[k].get(s) == nil {
			kindTable[k].put(s, kindTable[k].extract(p))
		}
	}
	return s
}
