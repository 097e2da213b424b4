// Bulk cache-only loading of synthetic key frames: the evaluation and
// benchmark corpora (100k–1M rows) are descriptor-space synthetic — no
// pixels, no JPEG encoding, no store rows — so loading must bypass the
// ingest pipeline and publish straight into the scoreable cache. The
// entries behave exactly like warmed stored rows for search purposes
// (ID and video indexes, arenas, cell index) but do not survive a
// reopen, which evaluation runs never do. Like a stored row, an entry
// keeps no descriptor set once its arena row is packed: with no
// KEY_FRAMES text to re-read, the reference asks the publisher's
// regenerator for the set instead.
package core

import (
	"errors"
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
// index per frame, exactly like commitIngest after a commit. IDs must
// be positive and unique; an already-cached ID is skipped whole, its
// video name included, mirroring warmCache. The engine keeps neither the
// slice nor any frame's Set, so streamed generators can call this in
// batches to bound peak memory.
//
// regen must return, for any published ID, a set equal to the one the
// frame was published with; the reference search (SearchWithSetReference)
// calls it under the engine read lock, possibly from several goroutines.
// Every entry of the call shares the one func value.
func (e *Engine) PublishSyntheticFrames(frames []SyntheticFrame, regen func(id int64) *features.Set) error {
	if regen == nil {
		return errors.New("core: synthetic frames need a set regenerator")
	}
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
		if _, ok := e.byID[f.ID]; ok {
			continue
		}
		e.putEntry(&frameEntry{
			id:       f.ID,
			videoID:  f.VideoID,
			frameIdx: f.FrameIndex,
			bucket:   f.Bucket,
			regen:    regen,
		}, f.Set)
		if f.VideoName != "" {
			e.video(f.VideoID).name = f.VideoName
		}
	}
	return nil
}
