//go:build !race

// The race detector makes sync.Pool drop a quarter of its Puts, so a
// pooled-raster allocation figure is only meaningful without it.

package core

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"cbvr/internal/features"
	"cbvr/internal/synthvid"
)

// TestIngestRasterPoolBounded pins that the key-frame pipeline allocates
// no analysis raster per key frame: each one is rescaled into the pooled
// planes' own raster. Warm re-indexes of an ingested 48-frame clip must
// allocate less than one 300×300 raster of TotalAlloc per re-indexed key
// frame; what they do allocate (about 140 KB) is the JPEG decode, the
// descriptors and the store writes.
func TestIngestRasterPoolBounded(t *testing.T) {
	const raster = features.AnalysisSize * features.AnalysisSize * 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P, one pool shard, one worker
	eng := openTestEngine(t)
	const frames = 48
	raw, _ := testContainer(t, synthvid.Movie, 61, frames)
	res, err := eng.IngestVideoStreamCtx(context.Background(), "pooled", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumFrames != frames {
		t.Fatalf("decoded %d frames", res.NumFrames)
	}
	reindex := func() uint64 {
		rx, err := eng.ReindexVideoCtx(context.Background(), res.VideoID)
		if err != nil {
			t.Fatal(err)
		}
		return uint64(rx.KeyFrames)
	}
	for i := 0; i < 2; i++ {
		reindex()
	}
	const runs = 5
	var keyFrames uint64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		keyFrames += reindex()
	}
	runtime.ReadMemStats(&after)
	perKeyFrame := (after.TotalAlloc - before.TotalAlloc) / keyFrames
	t.Logf("warm re-index allocates %d bytes per key frame over %d key frames", perKeyFrame, keyFrames)
	if perKeyFrame >= raster {
		t.Errorf("warm re-index allocates %d bytes per key frame, want < %d (one analysis raster)", perKeyFrame, raster)
	}
}
