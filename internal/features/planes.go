package features

import (
	"sync"

	"cbvr/internal/imaging"
)

// Planes holds the per-frame analysis rasters every extractor consumes,
// computed exactly once. Before this existed, each of the seven extractors
// independently rescaled the frame to the 300×300 analysis raster, five of
// them independently converted it to gray, and the range index paid for
// yet another rescale — eight rescales and six gray conversions per key
// frame. NewPlanes performs one rescale, one gray conversion, one HSV
// quantisation pass and one histogram pass; ExtractAll and the per-kind
// ExtractWith / Extract*With entry points then reuse the shared planes. The descriptors produced through the shared planes are
// bit-identical to the retained naive reference (ExtractAllReference) —
// see shared_test.go.
type Planes struct {
	// Analysis is the 300×300 analysis raster (the frame itself when it
	// already has analysis dimensions, mirroring analysisImage).
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
}

// NewPlanes computes the shared analysis planes for a frame.
func NewPlanes(im *imaging.Image) *Planes {
	p := &Planes{}
	p.reset(im)
	return p
}

// planesPool recycles Planes whose Gray and Quant buffers are already
// analysis-sized, so a steady-state ingest worker computes planes with zero
// per-frame raster allocations. Analysis is never pooled: it is either the
// caller's frame or a rescale the descriptors may alias.
var planesPool = sync.Pool{New: func() any { return &Planes{} }}

// AcquirePlanes is NewPlanes over pooled buffers. The returned planes are
// valid until Release; every descriptor the extractors produce copies out
// of the shared rasters (see shared_test.go's pool-aliasing tests), so the
// extracted Sets stay valid after the planes are recycled.
func AcquirePlanes(im *imaging.Image) *Planes {
	p := planesPool.Get().(*Planes)
	p.reset(im)
	return p
}

// Release returns the planes' Gray and Quant buffers to the pool. The
// planes must not be used afterwards.
func (p *Planes) Release() {
	p.Analysis = nil
	planesPool.Put(p)
}

// reset recomputes every plane for a frame, reusing buffers in place.
func (p *Planes) reset(im *imaging.Image) {
	a := analysisImage(im)
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
	return p.ExtractAllWithNaive(ExtractNaiveWith(p))
}

// ExtractAllWithNaive computes the other six descriptors from the planes
// and installs a precomputed naive signature instead of sampling it again.
// The streamed ingest pipeline passes the §4.1 selection-time signature,
// which was sampled from the same analysis raster, so the resulting Set is
// bit-identical to ExtractAll's.
func (p *Planes) ExtractAllWithNaive(sig *NaiveSignature) *Set {
	return &Set{
		Histogram:   ExtractColorHistogramWith(p),
		GLCM:        ExtractGLCMWith(p),
		Gabor:       ExtractGaborWith(p),
		Tamura:      ExtractTamuraWith(p),
		Correlogram: ExtractCorrelogramWith(p),
		Naive:       sig,
		Regions:     ExtractRegionsWith(p),
	}
}

// ExtractWith computes the descriptor of the given kind from shared
// planes, the planes-based counterpart of Extract.
func ExtractWith(kind Kind, p *Planes) (Descriptor, error) {
	switch kind {
	case KindHistogram:
		return ExtractColorHistogramWith(p), nil
	case KindGLCM:
		return ExtractGLCMWith(p), nil
	case KindGabor:
		return ExtractGaborWith(p), nil
	case KindTamura:
		return ExtractTamuraWith(p), nil
	case KindCorrelogram:
		return ExtractCorrelogramWith(p), nil
	case KindNaive:
		return ExtractNaiveWith(p), nil
	case KindRegions:
		return ExtractRegionsWith(p), nil
	default:
		return nil, errUnknownKind(kind)
	}
}
