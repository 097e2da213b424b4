package features

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"cbvr/internal/imaging"
)

// analysisImage rescales a frame to the canonical 300×300 analysis raster
// using the paper's nearest-neighbour interpolation; a frame that already
// has analysis dimensions is its own raster.
func analysisImage(im *imaging.Image) *imaging.Image {
	if im.W == AnalysisSize && im.H == AnalysisSize {
		return im
	}
	return im.Rescale(AnalysisSize, AnalysisSize)
}

// Extract is the per-kind reference: it computes the descriptor of the
// given kind the way the paper's pseudo-code implies, rescaling and
// converting the frame itself, then runs the same unexported kernel the
// kind's planes extractor runs. It is written out kind by kind,
// independently of the kind table and of Planes, so it can serve as the
// reference side of TestExtractWithMatchesExtract.
func Extract(kind Kind, im *imaging.Image) (Descriptor, error) {
	a := analysisImage(im)
	switch kind {
	case KindHistogram:
		return colorHistogramOf(a), nil
	case KindGLCM:
		return glcmFromGray(a.ToGray()), nil
	case KindGabor:
		means, devs := gaborStats(gaborGray(a), &gaborLive)
		return gaborFaithfulLayout(&means, &devs), nil
	case KindTamura:
		return tamuraFromGray(a.ToGray()), nil
	case KindCorrelogram:
		return correlogramFromQuant(quantizePlane(a), a.W, a.H), nil
	case KindNaive:
		sig := NaiveOf(a.Source())
		return &sig, nil
	case KindRegions:
		g := a.ToGray()
		return regionsFromGray(g, g.Histogram()), nil
	default:
		return nil, errUnknownKind(kind)
	}
}

// ExtractAllReference computes all seven descriptors the naive way the
// paper's pseudo-code implies: each extractor rescales and converts the
// frame independently, and the Gabor, correlogram and region extractors
// run their original per-pixel algorithms. It is the equivalence and
// benchmark baseline for the shared-plane path.
func ExtractAllReference(im *imaging.Image) *Set {
	naive := NaiveOf(analysisImage(im).Source())
	return &Set{
		Histogram:   colorHistogramOf(analysisImage(im)),
		GLCM:        glcmFromGray(analysisImage(im).ToGray()),
		Gabor:       ExtractGaborReference(im),
		Tamura:      tamuraFromGray(analysisImage(im).ToGray()),
		Correlogram: ExtractCorrelogramReference(im),
		Naive:       &naive,
		Regions:     ExtractRegionsReference(im),
	}
}

// mustExtract is Extract for a valid kind.
func mustExtract(tb testing.TB, kind Kind, im *imaging.Image) Descriptor {
	tb.Helper()
	d, err := Extract(kind, im)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// equivalenceFrames is the shared-plane equivalence corpus: random and
// structured content across sizes that exercise downscale, upscale, the
// exact-size fast path and degenerate rasters.
func equivalenceFrames() map[string]*imaging.Image {
	uniform := imaging.New(64, 64)
	uniform.Fill(37, 180, 92)
	gradient := imaging.New(640, 360)
	for y := 0; y < gradient.H; y++ {
		for x := 0; x < gradient.W; x++ {
			gradient.Set(x, y, uint8(x%256), uint8(y%256), uint8((x+y)%256))
		}
	}
	return map[string]*imaging.Image{
		"random_small":     randomFrame(1, 120, 90),
		"random_exact300":  randomFrame(2, AnalysisSize, AnalysisSize),
		"random_nonsquare": randomFrame(3, 400, 100),
		"random_upscale":   randomFrame(4, 40, 30),
		"random_1x1":       randomFrame(5, 1, 1),
		"structured":       structuredFrame(6),
		"uniform":          uniform,
		"gradient":         gradient,
	}
}

// TestSharedPlaneBitIdentity is the core equivalence guarantee: every
// descriptor produced through the shared analysis planes serialises to
// exactly the same string as the retained naive reference — including the
// paper's quirks (257×257 GLCM, Gabor tail-zero indexing bug), which both
// paths reproduce.
func TestSharedPlaneBitIdentity(t *testing.T) {
	for name, im := range equivalenceFrames() {
		t.Run(name, func(t *testing.T) {
			ref := ExtractAllReference(im)
			shared := NewPlanes(im).ExtractAll()
			for _, k := range AllKinds() {
				rs, ss := ref.Get(k).String(), shared.Get(k).String()
				if rs != ss {
					t.Errorf("%v diverges from reference\nref:    %.120s\nshared: %.120s", k, rs, ss)
				}
			}
		})
	}
}

// TestExtractWithMatchesExtract pins the per-kind planes entry points to
// the per-kind frame entry points.
func TestExtractWithMatchesExtract(t *testing.T) {
	for name, im := range equivalenceFrames() {
		p := NewPlanes(im)
		for _, k := range AllKinds() {
			d1, err := Extract(k, im)
			if err != nil {
				t.Fatal(err)
			}
			d2, err := ExtractWith(k, p)
			if err != nil {
				t.Fatal(err)
			}
			if d1.String() != d2.String() {
				t.Errorf("%s/%v: ExtractWith diverges from Extract", name, k)
			}
		}
	}
	if _, err := ExtractWith(Kind(99), NewPlanes(structuredFrame(1))); err == nil {
		t.Error("unknown kind accepted")
	}
}

// TestFastExtractorsMatchReference pins the two algorithmically rewritten
// extractors to their retained naive implementations on the frame-level
// reference, Extract (the planes path is covered by
// TestSharedPlaneBitIdentity).
func TestFastExtractorsMatchReference(t *testing.T) {
	for name, im := range equivalenceFrames() {
		if got, want := mustExtract(t, KindCorrelogram, im).String(), ExtractCorrelogramReference(im).String(); got != want {
			t.Errorf("%s: bitset correlogram diverges from countRing reference", name)
		}
		if got, want := mustExtract(t, KindGabor, im).String(), ExtractGaborReference(im).String(); got != want {
			t.Errorf("%s: pooled gabor diverges from reference", name)
		}
	}
}

// TestPlanesGrayHistMatchesRescale pins the shared gray histogram (the
// §4.2 range-finder input) to the naive rescale-then-GrayHistogram path
// the engine used before.
func TestPlanesGrayHistMatchesRescale(t *testing.T) {
	for name, im := range equivalenceFrames() {
		p := NewPlanes(im)
		want := im.Rescale(AnalysisSize, AnalysisSize).GrayHistogram()
		if p.GrayHist != want {
			t.Errorf("%s: planes gray histogram diverges from rescaled GrayHistogram", name)
		}
	}
}

// TestSharedExtractionSingleRescale verifies the headline guarantee with
// the imaging rescale counter: the shared path rescales a frame exactly
// once for all seven descriptors plus the range histogram, while the
// reference pays one rescale per extractor.
func TestSharedExtractionSingleRescale(t *testing.T) {
	im := randomFrame(7, 160, 120)
	start := imaging.RescaleCalls()
	NewPlanes(im).ExtractAll()
	if n := imaging.RescaleCalls() - start; n != 1 {
		t.Errorf("shared extraction performed %d rescales, want exactly 1", n)
	}
	start = imaging.RescaleCalls()
	ExtractAllReference(im)
	if n := imaging.RescaleCalls() - start; n != int64(NumKinds) {
		t.Errorf("reference extraction performed %d rescales, want %d (one per extractor)", n, NumKinds)
	}
}

// TestExtractAllSharedConcurrent drives the shared-plane path from a
// worker pool the way ingest does, under -race, and checks every result
// against precomputed reference strings — proving the pooled gabor and
// correlogram scratch buffers never alias across goroutines.
func TestExtractAllSharedConcurrent(t *testing.T) {
	const frames = 4
	ims := make([]*imaging.Image, frames)
	want := make([][]string, frames)
	for i := range ims {
		ims[i] = randomFrame(int64(100+i), 90+10*i, 70+5*i)
		set := ExtractAllReference(ims[i])
		for _, k := range AllKinds() {
			want[i] = append(want[i], set.Get(k).String())
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < 4; it++ {
				i := (w + it) % frames
				set := NewPlanes(ims[i]).ExtractAll()
				for ki, k := range AllKinds() {
					if got := set.Get(k).String(); got != want[i][ki] {
						errs <- fmt.Errorf("worker %d frame %d: %v diverged under concurrency", w, i, k)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
