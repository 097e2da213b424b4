package eval

import (
	"cbvr/internal/core"
	"cbvr/internal/synthvid"
)

// loadBatch bounds peak memory while bulk-publishing: frames are handed
// to the engine in slices of this many, so corpus size never dictates
// resident slice size. The engine keeps no set once packed, so a batch's
// sets (~5 KB a frame) are the only ones alive, and their size adds to
// the peak. Loading 40 000 rows in-process on a 2-CPU x86-64 box peaked
// at ~530 MB RSS with 8192, ~480 MB with 2048 and ~435 MB with 1024 or
// 512, in equal time.
const loadBatch = 1024

// LoadClusterCorpus streams the configured corpus into the engine's
// search cache in bounded batches. The engine sees exactly the frames a
// store-backed ingest would have published (ID and video indexes, arenas,
// cell index). The reference search regenerates a frame's set from the
// corpus configuration (synthvid.ClusterCorpus.Set) instead of the engine
// keeping a copy. The recall@K gates (recall_test.go) and the search_scale
// benchmark run over this corpus.
func LoadClusterCorpus(e *core.Engine, cfg synthvid.ClusterCorpusConfig) error {
	regen := synthvid.NewClusterCorpus(cfg).Set // one func value for every entry
	batch := make([]core.SyntheticFrame, 0, loadBatch)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := e.PublishSyntheticFrames(batch, regen)
		clear(batch) // drop the published sets before the next batch
		batch = batch[:0]
		return err
	}
	err := synthvid.StreamClusterCorpus(cfg, func(f *synthvid.DescriptorFrame) error {
		batch = append(batch, core.SyntheticFrame{
			ID:         f.ID,
			VideoID:    f.VideoID,
			VideoName:  f.VideoName,
			FrameIndex: f.FrameIndex,
			Bucket:     f.Bucket,
			Set:        f.Set,
		})
		if len(batch) == loadBatch {
			return flush()
		}
		return nil
	})
	if err != nil {
		return err
	}
	return flush()
}
