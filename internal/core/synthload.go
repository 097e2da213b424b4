// Bulk cache-only loading of synthetic key frames: the evaluation and
// benchmark corpora (100k–1M rows) are descriptor-space synthetic — no
// pixels, no JPEG encoding, no store rows — so loading must bypass the
// ingest pipeline and publish straight into the scoreable cache. The
// entries behave exactly like warmed stored rows for search purposes
// (ID and video indexes, arenas, cell index) but do not survive a
// reopen, which evaluation runs never do.
package core

import (
	"fmt"

	"cbvr/internal/features"
	"cbvr/internal/rangeindex"
)

// SyntheticFrame is one cache-only key frame for evaluation corpora.
type SyntheticFrame struct {
	ID         int64
	VideoID    int64
	VideoName  string
	FrameIndex int
	Bucket     rangeindex.Range
	Set        *features.Set
}

// PublishSyntheticFrames files the frames into the search cache under one
// write-lock critical section: ID and video index, arena row and cell
// index per frame, exactly like publishEntries after a commit. IDs must
// be positive and unique; an already-cached ID is skipped (putEntry's
// no-op), mirroring warmCache. Streamed generators can call this in
// batches to bound peak slice memory.
func (e *Engine) PublishSyntheticFrames(frames []SyntheticFrame) error {
	if err := e.warmCache(); err != nil {
		return err
	}
	for i := range frames {
		if frames[i].Set == nil {
			return fmt.Errorf("core: synthetic frame %d has no descriptor set", frames[i].ID)
		}
		if frames[i].ID <= 0 {
			return fmt.Errorf("core: synthetic frame ID %d must be positive", frames[i].ID)
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range frames {
		f := &frames[i]
		e.putEntry(&frameEntry{
			id:       f.ID,
			videoID:  f.VideoID,
			frameIdx: f.FrameIndex,
			bucket:   f.Bucket,
			set:      f.Set,
		})
		if f.VideoName != "" {
			e.video(f.VideoID).name = f.VideoName
		}
	}
	return nil
}
