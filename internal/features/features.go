// Package features implements the paper's seven frame descriptors
// (§4.3–§4.8): simple colour histogram, GLCM texture, Gabor texture,
// Tamura texture, auto colour correlogram, superficial (naive) signature
// and simple region growing — together with their string serialisations
// (the exact formats the paper stores in VARCHAR2 columns and prints in
// Fig. 8) and per-feature distance functions.
//
// Where the paper's pseudo-code contains quirks (the 257×257 GLCM, the
// Gabor feature-vector indexing bug that leaves the tail of the 60-vector
// zero), this package reproduces them faithfully and documents them, so
// outputs line up with the paper's published samples.
package features

import (
	"fmt"
	"strconv"
	"strings"

	"cbvr/internal/imaging"
)

// AnalysisSize is the canonical side length frames are rescaled to before
// feature extraction. The paper's pseudo-code bakes in 300×300 analysis:
// the range index divides histogram mass by 900 (= 300·300/100, i.e.
// percent), the naive signature rescales to 300, and the published GLCM
// pixelCounter is 180000 = 2·300·300.
const AnalysisSize = 300

// Kind identifies one of the paper's descriptors.
type Kind int

// The seven descriptor kinds, in the order of the paper's Table 1 columns.
const (
	KindGLCM Kind = iota
	KindGabor
	KindTamura
	KindHistogram
	KindCorrelogram
	KindRegions
	KindNaive
	NumKinds
)

var kindNames = [...]string{"glcm", "gabor", "tamura", "histogram", "autocorrelogram", "regions", "naive"}

// String returns the lower-case kind name.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// ParseKind maps a name produced by String back to a Kind.
func ParseKind(s string) (Kind, error) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("features: unknown kind %q", s)
}

// AllKinds returns every kind in Table 1 order.
func AllKinds() []Kind {
	out := make([]Kind, NumKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// Descriptor is a single extracted feature: serialisable to the paper's
// string format and comparable to another descriptor of the same kind.
type Descriptor interface {
	// Kind identifies the descriptor type.
	Kind() Kind
	// String renders the paper's VARCHAR serialisation (Fig. 8 formats).
	String() string
	// DistanceTo returns a non-negative dissimilarity to another
	// descriptor of the same kind. It returns an error on a kind
	// mismatch.
	DistanceTo(other Descriptor) (float64, error)
	// AppendTo appends the descriptor's packed kernel vector — exactly
	// Stride(Kind()) float64s — to dst and returns the extended slice.
	// Distance-invariant normalisations (histogram mass, Tamura
	// directionality) are baked in at pack time, so the batched kernels
	// (see kernels.go) reproduce DistanceTo bit for bit over packed
	// vectors.
	AppendTo(dst []float64) []float64
}

// kernelStrides maps each kind to its packed kernel vector width. The
// layouts are defined next to each kind's AppendTo.
var kernelStrides = [NumKinds]int{
	KindGLCM:        5,
	KindGabor:       GaborVectorLen,
	KindTamura:      TamuraVectorLen,
	KindHistogram:   HistogramBins + 1,
	KindCorrelogram: CorrelogramBins * CorrelogramMaxDistance,
	KindRegions:     3,
	KindNaive:       NaivePoints * 3,
}

// Stride returns the packed kernel vector width of a kind (the number of
// float64s AppendTo emits and the per-row stride of an arena column).
func Stride(kind Kind) int {
	if kind < 0 || kind >= NumKinds {
		panic(errUnknownKind(kind))
	}
	return kernelStrides[kind]
}

// Extract computes the descriptor of the given kind for a frame.
func Extract(kind Kind, im *imaging.Image) (Descriptor, error) {
	switch kind {
	case KindHistogram:
		return ExtractColorHistogram(im), nil
	case KindGLCM:
		return ExtractGLCM(im), nil
	case KindGabor:
		return ExtractGabor(im), nil
	case KindTamura:
		return ExtractTamura(im), nil
	case KindCorrelogram:
		return ExtractCorrelogram(im), nil
	case KindNaive:
		return ExtractNaive(im), nil
	case KindRegions:
		return ExtractRegions(im), nil
	default:
		return nil, errUnknownKind(kind)
	}
}

// errUnknownKind builds the standard error for an out-of-range kind.
func errUnknownKind(kind Kind) error {
	return fmt.Errorf("features: unknown kind %d", int(kind))
}

// Parse reconstructs a descriptor of the given kind from its String form.
func Parse(kind Kind, s string) (Descriptor, error) {
	switch kind {
	case KindHistogram:
		return ParseColorHistogram(s)
	case KindGLCM:
		return ParseGLCM(s)
	case KindGabor:
		return ParseGabor(s)
	case KindTamura:
		return ParseTamura(s)
	case KindCorrelogram:
		return ParseCorrelogram(s)
	case KindNaive:
		return ParseNaive(s)
	case KindRegions:
		return ParseRegions(s)
	default:
		return nil, fmt.Errorf("features: unknown kind %d", int(kind))
	}
}

// Set bundles one descriptor of every kind for a frame, as the KEY_FRAMES
// row stores them.
type Set struct {
	Histogram   *ColorHistogram
	GLCM        *GLCM
	Gabor       *Gabor
	Tamura      *Tamura
	Correlogram *Correlogram
	Naive       *NaiveSignature
	Regions     *RegionStats
}

// ExtractAll computes all seven descriptors for a frame. It runs the
// shared analysis-plane pass (see Planes): one rescale, one gray
// conversion, one HSV quantisation for the whole set, with outputs
// bit-identical to ExtractAllReference. The engine extracts through
// pooled planes instead (core.Describe); this is the image-in convenience.
func ExtractAll(im *imaging.Image) *Set {
	return NewPlanes(im).ExtractAll()
}

// ExtractAllReference computes all seven descriptors the naive way the
// paper's pseudo-code implies: each extractor rescales and converts the
// frame independently, and the correlogram and Gabor extractors use the
// original per-pixel algorithms. It is retained as the equivalence and
// benchmark baseline for the shared-plane path (mirroring the search
// pipeline's SearchWithSetReference).
func ExtractAllReference(im *imaging.Image) *Set {
	return &Set{
		Histogram:   ExtractColorHistogram(im),
		GLCM:        ExtractGLCM(im),
		Gabor:       ExtractGaborReference(im),
		Tamura:      ExtractTamura(im),
		Correlogram: ExtractCorrelogramReference(im),
		Naive:       ExtractNaive(im),
		Regions:     ExtractRegionsReference(im),
	}
}

// Get returns the descriptor of the given kind, or nil if absent.
func (s *Set) Get(kind Kind) Descriptor {
	switch kind {
	case KindHistogram:
		if s.Histogram == nil {
			return nil
		}
		return s.Histogram
	case KindGLCM:
		if s.GLCM == nil {
			return nil
		}
		return s.GLCM
	case KindGabor:
		if s.Gabor == nil {
			return nil
		}
		return s.Gabor
	case KindTamura:
		if s.Tamura == nil {
			return nil
		}
		return s.Tamura
	case KindCorrelogram:
		if s.Correlogram == nil {
			return nil
		}
		return s.Correlogram
	case KindNaive:
		if s.Naive == nil {
			return nil
		}
		return s.Naive
	case KindRegions:
		if s.Regions == nil {
			return nil
		}
		return s.Regions
	default:
		return nil
	}
}

// Put stores a descriptor into its slot. It returns an error for an
// unknown concrete type.
func (s *Set) Put(d Descriptor) error {
	switch v := d.(type) {
	case *ColorHistogram:
		s.Histogram = v
	case *GLCM:
		s.GLCM = v
	case *Gabor:
		s.Gabor = v
	case *Tamura:
		s.Tamura = v
	case *Correlogram:
		s.Correlogram = v
	case *NaiveSignature:
		s.Naive = v
	case *RegionStats:
		s.Regions = v
	default:
		return fmt.Errorf("features: cannot place descriptor of type %T", d)
	}
	return nil
}

// kindMismatch builds the standard error for DistanceTo across kinds.
func kindMismatch(want Kind, got Descriptor) error {
	return fmt.Errorf("features: distance between %v and %v descriptors", want, got.Kind())
}

// analysisImage rescales a frame to the canonical 300×300 analysis raster
// using the paper's nearest-neighbour interpolation.
func analysisImage(im *imaging.Image) *imaging.Image {
	if im.W == AnalysisSize && im.H == AnalysisSize {
		return im
	}
	return im.Rescale(AnalysisSize, AnalysisSize)
}

// parseFloats converts whitespace-separated fields to float64s.
func parseFloats(fields []string) ([]float64, error) {
	out := make([]float64, len(fields))
	for i, f := range fields {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("features: bad float %q: %w", f, err)
		}
		out[i] = v
	}
	return out, nil
}

// formatFloat renders a float the way Java's StringBuilder.append(double)
// does for typical values (shortest round-trip representation).
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// fieldsAfterPrefix checks that s starts with the given token and returns
// the remaining whitespace-separated fields.
func fieldsAfterPrefix(s, prefix string) ([]string, error) {
	fields := strings.Fields(s)
	if len(fields) == 0 || fields[0] != prefix {
		return nil, fmt.Errorf("features: expected %q prefix in %.40q", prefix, s)
	}
	return fields[1:], nil
}
