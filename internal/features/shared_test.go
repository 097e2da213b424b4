package features

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"cbvr/internal/imaging"
)

// Extract computes the descriptor of the given kind through the image-in
// extractors, each of which rescales and converts the frame itself. It is
// written out kind by kind, independently of the kind table, so it can
// serve as the reference side of TestExtractWithMatchesExtract.
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
			shared := ExtractAll(im)
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
// API (the planes path is covered by TestSharedPlaneBitIdentity).
func TestFastExtractorsMatchReference(t *testing.T) {
	for name, im := range equivalenceFrames() {
		if got, want := ExtractCorrelogram(im).String(), ExtractCorrelogramReference(im).String(); got != want {
			t.Errorf("%s: bitset correlogram diverges from countRing reference", name)
		}
		if got, want := ExtractGabor(im).String(), ExtractGaborReference(im).String(); got != want {
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
	ExtractAll(im)
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
				set := ExtractAll(ims[i])
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
