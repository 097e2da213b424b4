package core

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"cbvr/internal/catalog"
	"cbvr/internal/imaging"
	"cbvr/internal/synthvid"
)

// rowsEqual compares every stored column of two key-frame row sets.
func rowsEqual(t *testing.T, label string, got, want []*catalog.KeyFrame) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.ID != w.ID || g.Name != w.Name || g.FrameIndex != w.FrameIndex ||
			g.VideoID != w.VideoID || g.Min != w.Min || g.Max != w.Max ||
			g.MajorRegions != w.MajorRegions ||
			g.SCH != w.SCH || g.GLCM != w.GLCM || g.Gabor != w.Gabor ||
			g.Tamura != w.Tamura || g.ACC != w.ACC || g.Naive != w.Naive ||
			g.Regions != w.Regions {
			t.Errorf("%s: row %d differs", label, i)
		}
	}
}

// TestReindexVideoBitIdentical is the headline equivalence: after a
// re-index, every stored row — feature columns, bucket, name, frame
// index, IMAGE bytes — and the VIDEO/STREAM blobs must be bit-identical
// to a fresh IngestVideoStreamCtx of the same container, and search results
// must be unchanged.
func TestReindexVideoBitIdentical(t *testing.T) {
	raw, v := testContainer(t, synthvid.Sports, 41, 18)

	eng := openTestEngine(t)
	res, err := eng.IngestVideoStreamCtx(context.Background(), "clip", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	before := loadStored(t, eng, res.VideoID)
	if len(before.rows) < 2 {
		t.Fatalf("degenerate fixture: %d key frames", len(before.rows))
	}
	preSearch, err := eng.SearchFrame(v.Frames[0], SearchOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}

	rx, err := eng.ReindexVideoCtx(context.Background(), res.VideoID)
	if err != nil {
		t.Fatal(err)
	}
	if rx.VideoID != res.VideoID || rx.KeyFrames != len(before.rows) || rx.VideoName != "clip" {
		t.Fatalf("reindex result %+v", rx)
	}

	after := loadStored(t, eng, res.VideoID)
	rowsEqual(t, "reindex vs pre-reindex", after.rows, before.rows)
	if !bytes.Equal(after.video, before.video) {
		t.Error("VIDEO blob changed by reindex")
	}
	if !bytes.Equal(after.stream, before.stream) {
		t.Error("STREAM blob changed by reindex")
	}
	for i := range after.images {
		if !bytes.Equal(after.images[i], before.images[i]) {
			t.Errorf("key frame %d IMAGE bytes changed by reindex", i)
		}
	}

	// Fresh ingest into a second engine agrees column for column (IDs
	// aside, both engines assign the same sequence from 1).
	eng2 := openTestEngine(t)
	res2, err := eng2.IngestVideoStreamCtx(context.Background(), "clip", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	fresh := loadStored(t, eng2, res2.VideoID)
	rowsEqual(t, "reindex vs fresh ingest", after.rows, fresh.rows)

	// Search is undisturbed: same ranking, same distances.
	postSearch, err := eng.SearchFrame(v.Frames[0], SearchOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(postSearch) != len(preSearch) {
		t.Fatalf("search returned %d matches after reindex, want %d", len(postSearch), len(preSearch))
	}
	for i := range postSearch {
		if postSearch[i] != preSearch[i] {
			t.Errorf("match %d changed across reindex: %+v vs %+v", i, postSearch[i], preSearch[i])
		}
	}
}

// TestReindexAll rebuilds several videos and reports one result each, in
// V_ID order, leaving all rows intact.
func TestReindexAll(t *testing.T) {
	eng := openTestEngine(t)
	var want []int64
	for i, cat := range []synthvid.Category{synthvid.Sports, synthvid.News, synthvid.Cartoon} {
		raw, _ := testContainer(t, cat, int64(50+i), 12)
		res, err := eng.IngestVideoStreamCtx(context.Background(), fmt.Sprintf("clip_%d", i), bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res.VideoID)
	}
	before := make(map[int64]*storedVideo)
	for _, id := range want {
		before[id] = loadStored(t, eng, id)
	}

	results, err := eng.ReindexAllCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(want) {
		t.Fatalf("%d results, want %d", len(results), len(want))
	}
	for i, rx := range results {
		if rx.VideoID != want[i] {
			t.Errorf("result %d video %d, want %d", i, rx.VideoID, want[i])
		}
		rowsEqual(t, fmt.Sprintf("video %d", rx.VideoID),
			loadStored(t, eng, rx.VideoID).rows, before[rx.VideoID].rows)
	}
}

// TestReindexMissingVideo surfaces a clean error.
func TestReindexMissingVideo(t *testing.T) {
	eng := openTestEngine(t)
	if _, err := eng.ReindexVideoCtx(context.Background(), 99); err == nil || !strings.Contains(err.Error(), "no such video") {
		t.Fatalf("reindex of missing video: %v", err)
	}
}

// TestReindexUnderSearchChurn runs ReindexVideoCtx repeatedly while
// concurrent searches hammer the cache under -race: every search must
// succeed and keep finding the video (old or new rows — never a gap).
func TestReindexUnderSearchChurn(t *testing.T) {
	eng := openTestEngine(t)
	raw, v := testContainer(t, synthvid.Sports, 60, 18)
	res, err := eng.IngestVideoStreamCtx(context.Background(), "churn", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	qset := eng.ExtractQuerySets(v.Frames[:1])[0]
	qbucket := QueryBucket(v.Frames[0])

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	stop := make(chan struct{})
	for s := 0; s < 3; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				m, err := eng.SearchWithSet(qset, qbucket, SearchOptions{K: 3, NoPruning: i%2 == 0})
				if err != nil {
					errCh <- err
					return
				}
				if len(m) == 0 || m[0].VideoID != res.VideoID {
					errCh <- fmt.Errorf("search lost the video mid-reindex: %+v", m)
					return
				}
			}
		}()
	}
	for i := 0; i < 4; i++ {
		if _, err := eng.ReindexVideoCtx(context.Background(), res.VideoID); err != nil {
			close(stop)
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestReindexRescalesEachKeyFrameOnce extends the one-rescale-per-frame
// invariant to the re-index path: one RescaleInto per stored key-frame
// record, nothing else.
func TestReindexRescalesEachKeyFrameOnce(t *testing.T) {
	eng := openTestEngine(t)
	raw, _ := testContainer(t, synthvid.Nature, 62, 16)
	res, err := eng.IngestVideoStreamCtx(context.Background(), "once", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	start := imaging.RescaleCalls()
	rx, err := eng.ReindexVideoCtx(context.Background(), res.VideoID)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := imaging.RescaleCalls()-start, int64(rx.KeyFrames); got != want {
		t.Errorf("reindex performed %d rescales for %d key frames, want %d", got, rx.KeyFrames, want)
	}
}

// TestReindexDeletedMidSwap pins the delete/reindex race: a DeleteVideo
// that lands between the reindex commit and the cache swap must win —
// reindex reports the conflict and installs no ghost cache entries for
// the vanished video.
func TestReindexDeletedMidSwap(t *testing.T) {
	eng := openTestEngine(t)
	raw, _ := testContainer(t, synthvid.Cartoon, 63, 14)
	res, err := eng.IngestVideoStreamCtx(context.Background(), "doomed", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	eng.reindexHook = func(stage string) {
		if stage == "post-commit" {
			if err := eng.DeleteVideo(res.VideoID); err != nil {
				t.Errorf("delete during reindex: %v", err)
			}
		}
	}
	if _, err := eng.ReindexVideoCtx(context.Background(), res.VideoID); err == nil || !strings.Contains(err.Error(), "deleted during reindex") {
		t.Fatalf("reindex of concurrently deleted video: %v", err)
	}
	eng.reindexHook = nil
	n, err := eng.CacheSize()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("%d ghost cache entries survive a delete that raced a reindex", n)
	}
}
