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
// bench frame. Measured 0.275 MB — the 300×300 analysis raster (0.27 MB,
// never pooled: descriptors may alias it) and the seven descriptors; every
// working raster, bitmask, matrix and integral image is in frameScratch
// and contributes nothing (1.54 MB before Tamura's and GLCM's were, 5.35
// MB before any was). The ceiling is the measured figure plus 20 %: any
// one of those coming back per frame breaks it.
func TestExtractAllSteadyStateBytes(t *testing.T) {
	const ceiling = 330_000
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
