// Streaming re-index: re-extract every descriptor of already-stored
// videos from their stored key-frame streams, without re-uploading and
// without dropping the video from search mid-rebuild. This is what turns
// the store from write-once into a maintainable archive index — when the
// extraction code improves, ReindexAll rebuilds every feature row in
// place (the German Broadcasting Archive requirement: archive-scale CBVR
// must re-index stored content as descriptors evolve).
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"cbvr/internal/catalog"
	"cbvr/internal/cvj"
	"cbvr/internal/features"
	"cbvr/internal/imaging"
	"cbvr/internal/rangeindex"
)

// ReindexResult summarises one re-indexed video.
type ReindexResult struct {
	VideoID   int64
	VideoName string
	// KeyFrames is the number of feature rows rebuilt.
	KeyFrames int
}

// kfReindexWork carries one stored key frame through the re-extraction
// pool: the existing row pairs with the freshly decoded record, and the
// pool worker fills set and bucket.
type kfReindexWork struct {
	row    *catalog.KeyFrame
	scaled *imaging.Image // pooled analysis raster; dropped after extraction
	set    *features.Set
	bucket rangeindex.Range
}

// ReindexVideo re-extracts all seven descriptors and the §4.2 range
// bucket for every key frame of a stored video and replaces its
// KEY_FRAMES feature columns in one transaction.
//
// The pipeline streams the stored STREAM blob (the key-frame-only CVJ)
// through a BlobReader — the container is never materialised — decodes
// each record, rescales it into a pooled analysis raster and re-extracts
// through pooled shared planes, exactly the ingest extraction path, so
// the rebuilt rows are bit-identical to a fresh ingest of the same
// container (the stored records are the container's original JPEG bytes).
// The stored IMAGE blobs are left untouched.
//
// Visibility: extraction runs against a snapshot of the rows with no
// locks held, so searches keep scoring the old descriptors throughout the
// rebuild; after the transaction commits, the cache entries and their
// arena rows are swapped under the engine lock. A reader therefore
// sees either the old rows or the new rows, never a mix — the same
// guarantee crash recovery provides (see reindex_crash_test.go).
func (e *Engine) ReindexVideo(videoID int64) (*ReindexResult, error) {
	return e.ReindexVideoCtx(context.Background(), videoID)
}

// ReindexVideoCtx is ReindexVideo under a request context: cancellation is
// checked once per decoded key-frame record during re-extraction and once
// more before the replacement transaction begins, so an aborted request
// leaves the old rows (and the cache) fully intact.
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
	works, err := e.reextractStream(ctx, e.store.DB().NewBlobReader(nil, streamRef), rows)
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
	for i, w := range works {
		updated := *w.row
		updated.Image = nil // keep the stored IMAGE chain
		updated.Min, updated.Max = w.bucket.Min, w.bucket.Max
		updated.SCH = w.set.Histogram.String()
		updated.GLCM = w.set.GLCM.String()
		updated.Gabor = w.set.Gabor.String()
		updated.Tamura = w.set.Tamura.String()
		updated.ACC = w.set.Correlogram.String()
		updated.Naive = w.set.Naive.String()
		updated.Regions = w.set.Regions.String()
		updated.MajorRegions = w.set.Regions.Major
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
	// and this swap (its own transaction serialises after ours); it scrubs
	// vname inside the same critical section it scrubs the cache, so a
	// missing name here means the rows are gone and installing entries
	// would resurrect ghost rows for a deleted video.
	e.mu.Lock()
	name, alive := e.vname[videoID]
	if !alive {
		e.mu.Unlock()
		return fail(errors.New("video deleted during reindex"))
	}
	for _, w := range works {
		e.replaceEntry(&frameEntry{
			id:       w.row.ID,
			videoID:  videoID,
			frameIdx: w.row.FrameIndex,
			bucket:   w.bucket,
			set:      w.set,
		})
	}
	e.mu.Unlock()
	return &ReindexResult{VideoID: videoID, VideoName: name, KeyFrames: len(works)}, nil
}

// reextractStream decodes key-frame records from r and re-extracts their
// descriptor sets in the bounded worker pool, pairing record i with
// rows[i]. It validates that the stream and the rows agree on the key
// frame count.
func (e *Engine) reextractStream(ctx context.Context, r io.Reader, rows []*catalog.KeyFrame) ([]*kfReindexWork, error) {
	cr, err := cvj.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("key-frame stream: %w", err)
	}
	workers := e.workers()
	jobs := make(chan *kfReindexWork, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for w := range jobs {
				p := features.AcquirePlanes(w.scaled)
				w.set = p.ExtractAll()
				w.bucket = BucketFromPlanes(p)
				p.Release()
				e.rasters.put(w.scaled)
				w.scaled = nil
			}
		}()
	}
	var works []*kfReindexWork
	var decodeErr error
	for {
		if err := ctx.Err(); err != nil {
			decodeErr = err
			break
		}
		f, err := cr.NextFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			decodeErr = fmt.Errorf("key-frame stream record %d: %w", len(works), err)
			break
		}
		if len(works) >= len(rows) {
			decodeErr = fmt.Errorf("key-frame stream has more records than the %d stored rows", len(rows))
			break
		}
		scaled := f.Image
		if scaled.W != features.AnalysisSize || scaled.H != features.AnalysisSize {
			scaled = f.Image.RescaleInto(e.rasters.get(), features.AnalysisSize, features.AnalysisSize)
		}
		w := &kfReindexWork{row: rows[len(works)], scaled: scaled}
		works = append(works, w)
		jobs <- w
	}
	close(jobs)
	wg.Wait()
	if decodeErr != nil {
		return nil, decodeErr
	}
	if len(works) != len(rows) {
		return nil, fmt.Errorf("key-frame stream has %d records, stored rows %d", len(works), len(rows))
	}
	return works, nil
}

// ReindexAll rebuilds the feature rows of every stored video in V_ID
// order, returning one result per video. It stops at the first failure,
// returning the results of the videos already rebuilt alongside the
// error; completed videos keep their new rows (each video commits
// independently).
func (e *Engine) ReindexAll() ([]*ReindexResult, error) {
	return e.ReindexAllCtx(context.Background())
}

// ReindexAllCtx is ReindexAll under a request context; cancellation stops
// between (and inside) per-video rebuilds, keeping already-committed videos.
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
