// Streaming re-index: re-extract every descriptor of already-stored
// videos from their stored key-frame streams, without re-uploading and
// without dropping the video from search mid-rebuild. This is what turns
// the store from write-once into a maintainable archive index — when the
// extraction code improves, ReindexAllCtx rebuilds every feature row in
// place (the German Broadcasting Archive requirement: archive-scale CBVR
// must re-index stored content as descriptors evolve).
package core

import (
	"context"
	"errors"
	"fmt"
	"io"

	"cbvr/internal/catalog"
	"cbvr/internal/cvj"
)

// ReindexResult summarises one re-indexed video.
type ReindexResult struct {
	VideoID   int64
	VideoName string
	// KeyFrames is the number of feature rows rebuilt.
	KeyFrames int
}

// ReindexVideoCtx re-extracts all seven descriptors and the §4.2 range
// bucket for every key frame of a stored video and replaces its
// KEY_FRAMES feature columns in one transaction.
//
// The stored STREAM blob (the key-frame-only CVJ) streams through a
// BlobReader — the container is never materialised — into the key-frame
// pipeline ingest uses (pipeline.go): the same decode source and the same
// extraction pool, minus §4.1 selection, since every stored record is a
// key frame. The rebuilt rows are therefore bit-identical to a fresh
// ingest of the same container (the stored records are the container's
// original JPEG bytes). The stored IMAGE blobs are left untouched.
//
// Visibility: extraction runs against a snapshot of the rows with no
// locks held, so searches keep scoring the old descriptors throughout the
// rebuild; after the transaction commits, the cache entries and their
// arena rows are swapped under the engine lock. A reader therefore
// sees either the old rows or the new rows, never a mix — the same
// guarantee crash recovery provides (see reindex_crash_test.go).
//
// Cancellation is checked once per decoded key-frame record during
// re-extraction and once more before the replacement transaction begins,
// so an aborted request leaves the old rows (and the cache) fully intact.
func (e *Engine) ReindexVideoCtx(ctx context.Context, videoID int64) (*ReindexResult, error) {
	fail := func(err error) (*ReindexResult, error) {
		return nil, fmt.Errorf("core: reindex video %d: %w", videoID, err)
	}
	// Searches after the swap must be able to resolve entries; warm now so
	// the swap replaces a fully-populated cache.
	if err := e.warmCache(); err != nil {
		return fail(err)
	}
	_, streamRef, ok, err := e.store.VideoRefs(nil, videoID)
	if err != nil {
		return fail(err)
	}
	if !ok {
		return fail(ErrNotFound)
	}
	rows, err := e.store.KeyFramesOfVideo(nil, videoID)
	if err != nil {
		return fail(err)
	}

	// Re-extract from the streamed key-frame records. Record i is key
	// frame i: the STREAM column is assembled in frame order at ingest,
	// and KeyFramesOfVideo returns rows in the same order.
	jobs, err := e.reextractStream(ctx, e.store.DB().NewBlobReader(nil, streamRef), rows)
	if err != nil {
		return fail(err)
	}
	// Last cancellation point: a cancelled request must never take the
	// writer lock or replace any rows.
	if err := ctx.Err(); err != nil {
		return fail(err)
	}

	// Replace the feature columns transactionally. Old rows stay
	// queryable (and the cache untouched) until Commit.
	tx, err := e.store.Begin()
	if err != nil {
		return fail(err)
	}
	//cbvrvet:ignore ctxloop the commit section is deliberately uninterruptible: past the last cancellation point above, the transaction must fully apply or fully abort
	for i, j := range jobs {
		updated := *rows[i]
		updated.Image = nil // keep the stored IMAGE chain
		putDescriptors(&updated, j.set, j.bucket)
		if err := e.store.UpdateKeyFrame(tx, &updated); err != nil {
			tx.Abort()
			return fail(err)
		}
		if e.reindexHook != nil && i == 0 {
			e.reindexHook("mid-update")
		}
	}
	if e.reindexHook != nil {
		e.reindexHook("pre-commit")
	}
	if err := tx.Commit(); err != nil {
		return fail(err)
	}
	if e.reindexHook != nil {
		e.reindexHook("post-commit")
	}

	// Swap the published entries: install each key frame's rebuilt entry
	// over the old one atomically under the engine lock. A
	// concurrent DeleteVideo may have removed the video between our commit
	// and this swap (its own transaction serialises after ours); it drops
	// the video's index entry inside the same critical section it scrubs
	// the cache, so a missing entry here means the rows are gone and
	// installing entries would resurrect ghost rows for a deleted video.
	e.mu.Lock()
	v, alive := e.videos[videoID]
	if !alive {
		e.mu.Unlock()
		return fail(errors.New("video deleted during reindex"))
	}
	for i, j := range jobs {
		en := &frameEntry{
			id:       rows[i].ID,
			videoID:  videoID,
			frameIdx: rows[i].FrameIndex,
			bucket:   j.bucket,
		}
		e.replaceEntry(en, j.set)
	}
	name := v.name
	e.mu.Unlock()
	return &ReindexResult{VideoID: videoID, VideoName: name, KeyFrames: len(jobs)}, nil
}

// reextractStream decodes the key-frame records from r and describes each
// one in the extraction pool; job i belongs to rows[i]. It validates that
// the stream and the rows agree on the key frame count.
func (e *Engine) reextractStream(ctx context.Context, r io.Reader, rows []*catalog.KeyFrame) ([]*kfJob, error) {
	cr, err := cvj.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("key-frame stream: %w", err)
	}
	src := &frameSource{ctx: ctx, cr: cr}
	jobs, err := e.describeKeyFrames(func(submit func(*kfJob)) error {
		for n := 0; ; n++ {
			fr, err := src.NextSource() // checks ctx once per record
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return fmt.Errorf("key-frame stream record %d: %w", n, err)
			}
			if n == len(rows) {
				return fmt.Errorf("key-frame stream has more records than the %d stored rows", len(rows))
			}
			submit(&kfJob{src: fr})
		}
	})
	if err != nil {
		return nil, err
	}
	if len(jobs) != len(rows) {
		return nil, fmt.Errorf("key-frame stream has %d records, stored rows %d", len(jobs), len(rows))
	}
	return jobs, nil
}

// ReindexAllCtx rebuilds the feature rows of every stored video in V_ID
// order, returning one result per video. It stops at the first failure or
// cancellation, returning the results of the videos already rebuilt
// alongside the error; completed videos keep their new rows (each video
// commits independently).
func (e *Engine) ReindexAllCtx(ctx context.Context) ([]*ReindexResult, error) {
	vids, err := e.store.ListVideos(nil)
	if err != nil {
		return nil, fmt.Errorf("core: reindex all: %w", err)
	}
	out := make([]*ReindexResult, 0, len(vids))
	for _, v := range vids {
		res, err := e.ReindexVideoCtx(ctx, v.ID)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}
