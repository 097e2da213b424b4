// Before/after benchmarks for the shared analysis-plane pipeline:
// every *Reference benchmark runs the naive implementation kept beside
// the tests, its unsuffixed twin the production bitset/SIMD/pooled kernel
// behind the test-side per-frame rescale (Extract), and every *With
// benchmark the kernel alone over shared planes. The paths are
// bit-identical (shared_test.go); these are the micro numbers
// README "Extraction performance" and the per-PR notes in CHANGES.md
// cite, and the CI bench smoke step runs one iteration of the extraction
// ones so a fast path that stops compiling or asserting breaks the build.
package features

import (
	"testing"

	"cbvr/internal/imaging"
)

// benchFrame is a 320×240 structured frame (regions + texture + noise),
// representative of a decoded key frame that needs the analysis rescale.
func benchFrame() *imaging.Image {
	im := structuredFrame(17)
	big := imaging.New(320, 240)
	for y := 0; y < big.H; y++ {
		for x := 0; x < big.W; x++ {
			r, g, b := im.At(x*im.W/big.W, y*im.H/big.H)
			big.Set(x, y, r+uint8(x%7), g+uint8(y%5), b)
		}
	}
	return big
}

func BenchmarkExtractAll(b *testing.B) {
	im := benchFrame()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewPlanes(im).ExtractAll()
	}
}

func BenchmarkExtractAllReference(b *testing.B) {
	im := benchFrame()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ExtractAllReference(im)
	}
}

func BenchmarkNewPlanes(b *testing.B) {
	im := benchFrame()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewPlanes(im)
	}
}

// Correlogram: row-bitset pair counting vs the per-pixel countRing walk.

func BenchmarkExtractCorrelogram(b *testing.B) { benchKind(b, KindCorrelogram) }

func BenchmarkExtractCorrelogramReference(b *testing.B) {
	im := benchFrame()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ExtractCorrelogramReference(im)
	}
}

// Gabor: pooled planes + the two-lane row kernel over the 18 live filters
// vs the naive loop over all 30.

func BenchmarkExtractGabor(b *testing.B) { benchKind(b, KindGabor) }

func BenchmarkExtractGaborReference(b *testing.B) {
	im := benchFrame()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ExtractGaborReference(im)
	}
}

// The remaining five extractors share planes but keep their algorithms;
// the planes variants skip the per-extractor rescale/gray conversion.

func benchWith(b *testing.B, kind Kind) {
	p := NewPlanes(benchFrame())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExtractWith(kind, p); err != nil {
			b.Fatal(err)
		}
	}
}

func benchKind(b *testing.B, kind Kind) {
	im := benchFrame()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustExtract(b, kind, im)
	}
}

func BenchmarkExtractHistogramWith(b *testing.B)   { benchWith(b, KindHistogram) }
func BenchmarkExtractHistogramFrame(b *testing.B)  { benchKind(b, KindHistogram) }
func BenchmarkExtractGLCMWith(b *testing.B)        { benchWith(b, KindGLCM) }
func BenchmarkExtractGLCMFrame(b *testing.B)       { benchKind(b, KindGLCM) }
func BenchmarkExtractGaborWith(b *testing.B)       { benchWith(b, KindGabor) }
func BenchmarkExtractTamuraWith(b *testing.B)      { benchWith(b, KindTamura) }
func BenchmarkExtractTamuraFrame(b *testing.B)     { benchKind(b, KindTamura) }
func BenchmarkExtractCorrelogramWith(b *testing.B) { benchWith(b, KindCorrelogram) }
func BenchmarkExtractNaiveWith(b *testing.B)       { benchWith(b, KindNaive) }
func BenchmarkExtractNaiveFrame(b *testing.B)      { benchKind(b, KindNaive) }
func BenchmarkExtractRegionsWith(b *testing.B)     { benchWith(b, KindRegions) }
func BenchmarkExtractRegionsFrame(b *testing.B)    { benchKind(b, KindRegions) }

// Regions: fresh rasters and the stack grower, the "before" of the pooled
// scratch and run labelling the two benchmarks above run (frame for
// frame, BenchmarkExtractRegionsFrame is its twin). The generic
// kernel-walk smoothing has its own pair in imaging
// (BenchmarkCloseOpenBox3 / …Reference).
func BenchmarkExtractRegionsReference(b *testing.B) {
	im := benchFrame()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExtractRegionsReference(im)
	}
}
