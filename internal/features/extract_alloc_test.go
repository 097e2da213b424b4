//go:build !race

// The race detector makes sync.Pool drop a quarter of its Puts, so a
// pooled-scratch allocation figure is only meaningful without it.

package features

import (
	"runtime"
	"testing"
)

// TestExtractAllSteadyStateBytes pins what a warm ingest worker or search
// handler allocates per frame: AcquirePlanes → ExtractAll → Release on the
// bench frame. Measured 1.54 MB — Tamura's integral images (0.72 MB),
// GLCM's co-occurrence matrix (0.53 MB), the analysis raster (0.27 MB)
// and the seven descriptors; the Gabor and region extractors' rasters,
// run slices and union–find state are pooled and contribute nothing
// (5.35 MB before they were). The ceiling is the measured figure plus
// 20 %: the per-frame label plane or the morphology planes coming back
// breaks it.
func TestExtractAllSteadyStateBytes(t *testing.T) {
	const ceiling = 1_850_000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P, one pool shard
	im := benchFrame()
	frame := func() {
		p := AcquirePlanes(im)
		p.ExtractAll()
		p.Release()
	}
	for i := 0; i < 3; i++ {
		frame()
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		frame()
	}
	runtime.ReadMemStats(&after)
	perFrame := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("steady-state extraction allocates %d bytes per frame", perFrame)
	if perFrame > ceiling {
		t.Errorf("steady-state extraction allocates %d bytes per frame, ceiling %d", perFrame, ceiling)
	}
}
