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
	"math"
	"strconv"
	"strings"
)

// AnalysisSize is the canonical side length frames are rescaled to before
// feature extraction. The paper's pseudo-code bakes in 300×300 analysis:
// the range index divides histogram mass by 900 (= 300·300/100, i.e.
// percent), the naive signature rescales to 300, and the published GLCM
// pixelCounter is 180000 = 2·300·300.
const AnalysisSize = 300

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

// Set bundles one descriptor of every kind for a frame, as the KEY_FRAMES
// row stores them. Get and Put address a slot by kind (kinds.go).
type Set struct {
	Histogram   *ColorHistogram
	GLCM        *GLCM
	Gabor       *Gabor
	Tamura      *Tamura
	Correlogram *Correlogram
	Naive       *NaiveSignature
	Regions     *RegionStats
}

// kindMismatch builds the standard error for DistanceTo across kinds.
func kindMismatch(want Kind, got Descriptor) error {
	return fmt.Errorf("features: distance between %v and %v descriptors", want, got.Kind())
}

// parseFloats converts a kind's whitespace-separated value fields to
// float64s; errors name the kind and the value's position. It
// rejects NaN and the infinities, which strconv.ParseFloat accepts but no
// extractor emits: a non-finite value would make every distance to the
// row, and so every rank sort and cell centroid over it, meaningless.
func parseFloats(kind Kind, fields []string) ([]float64, error) {
	out := make([]float64, len(fields))
	for i, f := range fields {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("features: %v value %d: bad float %q: %w", kind, i, f, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("features: %v value %d is %q, not a finite number", kind, i, f)
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
