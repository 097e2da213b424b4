package features

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"

	"cbvr/internal/imaging"
)

// TestAcquirePlanesBitIdentity pins the pooled-planes path to the retained
// reference: acquiring, extracting and releasing must produce exactly the
// reference descriptor strings, and recycling the buffers for another frame
// must not disturb descriptors extracted earlier (every descriptor copies
// out of the shared rasters, the pooled analysis raster included). RGB
// frames alternate with JPEG-decoded frames of other sizes, whose Y'CbCr
// planes are rescaled straight into the pooled raster, so a raster left
// over from the previous frame, or one that kept the previous frame's
// size, would show.
func TestAcquirePlanesBitIdentity(t *testing.T) {
	type extracted struct {
		name string
		want *Set
		got  *Set
	}
	var all []extracted
	extract := func(name string, src imaging.Source) {
		p := AcquireSourcePlanes(src)
		got := p.ExtractAll()
		p.Release()
		all = append(all, extracted{name: name, want: ExtractAllReference(src.Image()), got: got})
	}
	decoded := []imaging.Source{
		jpegSource(t, randomFrame(20, 160, 120)),
		jpegSource(t, randomFrame(21, AnalysisSize, AnalysisSize)),
		jpegSource(t, structuredFrame(22)),
		jpegSource(t, randomFrame(23, 641, 479)),
	}
	frames := equivalenceFrames()
	names := make([]string, 0, len(frames))
	for name := range frames {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		extract(name, frames[name].Source())
		j := i % len(decoded)
		extract(fmt.Sprintf("jpeg_%d", j), decoded[j])
	}
	// Churn the pool after all extractions so stale aliasing would show.
	for i := 0; i < 4; i++ {
		p := AcquirePlanes(randomFrame(int64(900+i), 128, 96))
		p.ExtractAll()
		p.Release()
		p = AcquireSourcePlanes(decoded[i])
		p.ExtractAll()
		p.Release()
	}
	for _, e := range all {
		for _, k := range AllKinds() {
			if ws, gs := e.want.Get(k).String(), e.got.Get(k).String(); ws != gs {
				t.Errorf("%s/%v: pooled planes diverge from reference", e.name, k)
			}
		}
	}
}

// jpegSource encodes a frame as JPEG and decodes it back as the decoder's
// Y'CbCr planes.
func jpegSource(t *testing.T, im *imaging.Image) imaging.Source {
	t.Helper()
	var buf bytes.Buffer
	if err := im.EncodeJPEG(&buf, 0); err != nil {
		t.Fatal(err)
	}
	src, err := imaging.DecodeJPEGSource(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if src.RGB() != nil {
		t.Fatal("JPEG decoded to an RGB raster, want Y'CbCr planes")
	}
	return src
}

// TestExtractAllWithNaiveInstallsSignature checks that the precomputed
// signature is installed verbatim and matches what a recompute would have
// produced from the same planes.
func TestExtractAllWithNaiveInstallsSignature(t *testing.T) {
	im := randomFrame(11, 200, 150)
	p := NewPlanes(im)
	sig := extractNaiveWith(p)
	set := p.ExtractAllWithNaive(sig)
	if set.Naive != sig {
		t.Error("signature not installed verbatim")
	}
	if set.Naive.String() != extractNaiveWith(NewPlanes(im)).String() {
		t.Error("installed signature diverges from a fresh extraction")
	}
	ref := p.ExtractAll()
	for _, k := range AllKinds() {
		if set.Get(k).String() != ref.Get(k).String() {
			t.Errorf("%v: ExtractAllWithNaive diverges from ExtractAll", k)
		}
	}
}

// TestExtractNaivePrescaledRaster pins the selection-time optimisation the
// streamed ingest relies on: extracting from an already-analysis-sized
// raster performs no rescale and yields the identical signature.
func TestExtractNaivePrescaledRaster(t *testing.T) {
	im := randomFrame(12, 320, 240)
	want := extractNaiveWith(NewPlanes(im)).String()
	scaled := analysisImage(im)
	start := imaging.RescaleCalls()
	got := extractNaiveWith(NewPlanes(scaled)).String()
	if n := imaging.RescaleCalls() - start; n != 0 {
		t.Errorf("pre-scaled naive extraction performed %d rescales, want 0", n)
	}
	if got != want {
		t.Error("pre-scaled signature diverges from full-resolution extraction")
	}
}

// TestAcquirePlanesConcurrent drives the pooled-planes path from a worker
// pool the way streamed ingest does, under -race: concurrent acquire /
// extract / release cycles must never let recycled Gray or Quant buffers
// bleed between frames.
func TestAcquirePlanesConcurrent(t *testing.T) {
	const frames = 4
	ims := make([]*imaging.Image, frames)
	want := make([][]string, frames)
	for i := range ims {
		ims[i] = randomFrame(int64(300+i), 100+12*i, 80+6*i)
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
			for it := 0; it < 6; it++ {
				i := (w + it) % frames
				p := AcquirePlanes(ims[i])
				set := p.ExtractAllWithNaive(extractNaiveWith(p))
				p.Release()
				for ki, k := range AllKinds() {
					if got := set.Get(k).String(); got != want[i][ki] {
						errs <- fmt.Errorf("worker %d frame %d: %v diverged through the pool", w, i, k)
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
