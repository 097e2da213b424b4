package features

import "fmt"

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

// kindDef describes one descriptor kind, the way a schema's column
// definition describes a column. Every per-kind dispatch in the package —
// naming, packing width, extraction, parsing, Set slots, distance kernels,
// bounds — reads it from kindTable, so a kind is written down exactly once.
type kindDef struct {
	name   string // Kind.String and ParseKind
	stride int    // packed kernel vector width (AppendTo, arena columns)
	// extract computes the descriptor from shared analysis planes; parse
	// rebuilds it from its String form.
	extract func(*Planes) Descriptor
	parse   func(string) (Descriptor, error)
	// get reads the kind's Set slot, untyped nil when it is empty; put
	// fills it, reporting false for a descriptor of another concrete type.
	get func(*Set) Descriptor
	put func(*Set, Descriptor) bool
	// batch is the kind's monomorphic column kernel: the row kernel is a
	// direct call inside it, so dispatch costs one indirect call per
	// column, never one per row. pair is the single-pair form.
	batch func(q, col []float64, rows []int32, out []float64)
	pair  func(a, b []float64) float64
	// metric reports that the packed distance satisfies the triangle
	// inequality, so PairLowerBound is sound for the kind (see bounds.go).
	metric bool
	// fixedScale is the kind's typical distance magnitude; fixed-scale
	// fusion (DTW video search) divides by it where per-candidate min-max
	// normalisation is not available.
	fixedScale float64
}

// kindTable is the one description of the seven kinds, indexed by Kind.
var kindTable = [NumKinds]kindDef{
	KindGLCM: slot(kindDef{
		name:       "glcm",
		stride:     5,
		batch:      func(q, col []float64, rows []int32, out []float64) { batchKernel(q, col, rows, out, glcmRow) },
		pair:       glcmRow,
		metric:     true,
		fixedScale: 2, // scaled L2, typically < 2
	}, func(s *Set) **GLCM { return &s.GLCM }, extractGLCMWith, ParseGLCM),
	KindGabor: slot(kindDef{
		name:       "gabor",
		stride:     GaborVectorLen,
		batch:      l2Batch,
		pair:       l2Row,
		metric:     true,
		fixedScale: 0.5, // magnitude-normalised responses
	}, func(s *Set) **Gabor { return &s.Gabor }, extractGaborWith, ParseGabor),
	KindTamura: slot(kindDef{
		name:       "tamura",
		stride:     TamuraVectorLen,
		batch:      tamuraBatch,
		pair:       tamuraRow,
		metric:     true,
		fixedScale: 2, // scaled L2 + half-L1 directionality
	}, func(s *Set) **Tamura { return &s.Tamura }, extractTamuraWith, ParseTamura),
	KindHistogram: slot(kindDef{
		name:       "histogram",
		stride:     HistogramBins + 1,
		batch:      histBatch,
		pair:       histRow,
		metric:     true,
		fixedScale: 2, // L1 over distributions is in [0,2]
	}, func(s *Set) **ColorHistogram { return &s.Histogram }, extractColorHistogramWith, ParseColorHistogram),
	KindCorrelogram: slot(kindDef{
		name:       "autocorrelogram",
		stride:     CorrelogramBins * CorrelogramMaxDistance,
		batch:      correlogramBatch,
		pair:       correlogramRow,
		metric:     true,
		fixedScale: 0.5, // mean |Δ| of max-normalised cells
	}, func(s *Set) **Correlogram { return &s.Correlogram }, extractCorrelogramWith, ParseCorrelogram),
	KindRegions: slot(kindDef{
		name:       "regions",
		stride:     3,
		batch:      func(q, col []float64, rows []int32, out []float64) { batchKernel(q, col, rows, out, regionsRow) },
		pair:       regionsRow,
		metric:     true,
		fixedScale: 10, // counts
	}, func(s *Set) **RegionStats { return &s.Regions }, extractRegionsWith, ParseRegions),
	KindNaive: slot(kindDef{
		name:       "naive",
		stride:     NaivePoints * 3,
		batch:      naiveBatch,
		pair:       naiveRow,
		metric:     true,
		fixedScale: 11025, // 25 × max per-point distance (441)
	}, func(s *Set) **NaiveSignature { return &s.Naive }, extractNaiveWith, ParseNaive),
}

// slot completes a table row with the kind's typed extractor, parser and
// Set field, adapted to the row's Descriptor-typed columns.
func slot[T any, P interface {
	*T
	Descriptor
}](d kindDef, field func(*Set) *P, extract func(*Planes) P, parse func(string) (P, error)) kindDef {
	d.extract = func(p *Planes) Descriptor { return extract(p) }
	d.parse = func(s string) (Descriptor, error) { return parse(s) }
	d.get = func(s *Set) Descriptor {
		if v := *field(s); v != nil {
			return v
		}
		return nil
	}
	d.put = func(s *Set, x Descriptor) bool {
		v, ok := x.(P)
		if ok {
			*field(s) = v
		}
		return ok
	}
	return d
}

// Valid reports whether k is one of the seven kinds.
func (k Kind) Valid() bool { return k >= 0 && k < NumKinds }

// errUnknownKind builds the standard error for an out-of-range kind.
func errUnknownKind(kind Kind) error {
	return fmt.Errorf("features: unknown kind %d", int(kind))
}

// String returns the lower-case kind name.
func (k Kind) String() string {
	if !k.Valid() {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindTable[k].name
}

// ParseKind maps a name produced by String back to a Kind.
func ParseKind(s string) (Kind, error) {
	for k := range kindTable {
		if kindTable[k].name == s {
			return Kind(k), nil
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

// Stride returns the packed kernel vector width of a kind (the number of
// float64s AppendTo emits and the per-row stride of an arena column).
func Stride(kind Kind) int {
	if !kind.Valid() {
		panic(errUnknownKind(kind))
	}
	return kindTable[kind].stride
}

// ExtractWith computes the descriptor of the given kind from shared
// planes.
func ExtractWith(kind Kind, p *Planes) (Descriptor, error) {
	if !kind.Valid() {
		return nil, errUnknownKind(kind)
	}
	return kindTable[kind].extract(p), nil
}

// Parse reconstructs a descriptor of the given kind from its String form.
func Parse(kind Kind, s string) (Descriptor, error) {
	if !kind.Valid() {
		return nil, errUnknownKind(kind)
	}
	return kindTable[kind].parse(s)
}

// Get returns the descriptor of the given kind, or nil if absent.
func (s *Set) Get(kind Kind) Descriptor {
	if !kind.Valid() {
		return nil
	}
	return kindTable[kind].get(s)
}

// Put stores a descriptor into its slot. It returns an error for an
// unknown concrete type.
func (s *Set) Put(d Descriptor) error {
	if d != nil {
		if k := d.Kind(); k.Valid() && kindTable[k].put(s, d) {
			return nil
		}
	}
	return fmt.Errorf("features: cannot place descriptor of type %T", d)
}

// BatchDistance computes out[i] = the kind's DistanceTo between the
// packed query vector q (len Stride(kind), from AppendTo) and row rows[i]
// of the packed column col (row r occupies col[r*stride:(r+1)*stride]).
// out must have len(rows) capacity; rows may address any subset of the
// column in any order.
//
//cbvrvet:noalloc
func BatchDistance(kind Kind, q, col []float64, rows []int32, out []float64) {
	kindTable[kind].batch(q, col, rows, out)
}

// PairDistance computes the kind's DistanceTo between two packed vectors
// (each len Stride(kind)). It is the single-pair form of BatchDistance,
// used where one pair is scored alone: the per-centroid lower bounds, the
// cell index's incremental radius widening, its rebuild's centroid moves
// and previous-centroid distances (every sweep over many centroids or
// rows goes through BatchDistance), and the fixed-scale fusion in DTW
// video search and the best-single-frame ablation. The kernels are
// exactly symmetric: swapping a and b gives the same bits.
//
//cbvrvet:noalloc
func PairDistance(kind Kind, a, b []float64) float64 {
	return kindTable[kind].pair(a, b)
}

// BoundSupported reports whether the kind's packed distance satisfies the
// triangle inequality, i.e. whether PairLowerBound is sound for it. An
// out-of-range kind reports false, so callers fail safe (never bounded,
// never pruned).
func BoundSupported(kind Kind) bool {
	return kind.Valid() && kindTable[kind].metric
}

// FixedScale returns the kind's typical distance magnitude, the divisor
// that brings its raw distances to a comparable unit in fixed-scale fusion.
func FixedScale(kind Kind) float64 {
	return kindTable[kind].fixedScale
}
