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
// bench frame. Measured 4 936 bytes — the seven descriptors and nothing
// else: the 300×300 analysis raster is the pooled planes' own (0.27 MB
// per frame before it was), and every working raster, bitmask, matrix and
// integral image is in frameScratch (1.54 MB before Tamura's and GLCM's
// were, 5.35 MB before any was). The ceiling leaves room for the
// descriptors to grow but not for any of those buffers to come back per
// frame.
func TestExtractAllSteadyStateBytes(t *testing.T) {
	const ceiling = 20_000
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
