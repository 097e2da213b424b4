//go:build !race

// The live heap this pins reads the same under the race detector, but
// the instrumented load runs about ten times slower; the race build
// skips it.

package core

import (
	"runtime"
	"testing"

	"cbvr/internal/features"
	"cbvr/internal/synthvid"
)

// liveHeap collects garbage and reports the bytes still reachable. The
// second collection empties the sync.Pool victim caches the first one
// filled.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestSyntheticRowHeapBytes pins what a published synthetic row costs
// once its batch is gone: the packed arena row (Σ features.Stride × 8 =
// 5 392 B) plus the cache's bookkeeping, and no descriptor set beside it.
// A row reads ~6.2 KB, the column growth slack, the indexes and the cells
// making up the rest; one that also kept its features.Set would read
// ~11 KB.
func TestSyntheticRowHeapBytes(t *testing.T) {
	const rows, batch = 16000, 1024
	packed := 0
	for _, kind := range features.AllKinds() {
		packed += features.Stride(kind) * 8
	}
	ceiling := packed * 5 / 4

	eng := openCellEngine(t, Options{SearchShards: 8})
	if _, err := eng.CacheSize(); err != nil { // warm the empty store first
		t.Fatal(err)
	}
	cfg := synthvid.ClusterCorpusConfig{Frames: rows, Seed: 11}
	regen := synthvid.NewClusterCorpus(cfg).Set
	frames := make([]SyntheticFrame, 0, batch)
	publish := func() error {
		err := eng.PublishSyntheticFrames(frames, regen)
		clear(frames)
		frames = frames[:0]
		return err
	}

	before := liveHeap()
	err := synthvid.StreamClusterCorpus(cfg, func(f *synthvid.DescriptorFrame) error {
		frames = append(frames, SyntheticFrame{
			ID: f.ID, VideoID: f.VideoID, VideoName: f.VideoName,
			FrameIndex: f.FrameIndex, Bucket: f.Bucket, Set: f.Set,
		})
		if len(frames) == batch {
			return publish()
		}
		return nil
	})
	if err == nil {
		err = publish()
	}
	if err != nil {
		t.Fatal(err)
	}
	perRow := int(liveHeap()-before) / rows
	runtime.KeepAlive(eng)
	t.Logf("%d synthetic rows hold %d live heap bytes a row (packed row %d B)", rows, perRow, packed)
	if perRow > ceiling {
		t.Errorf("a synthetic row holds %d live heap bytes, ceiling %d (1.25 × the %d B packed row)", perRow, ceiling, packed)
	}
}
