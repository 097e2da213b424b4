package core

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"cbvr/internal/features"
	"cbvr/internal/imaging"
	"cbvr/internal/keyframe"
	"cbvr/internal/synthvid"
)

// TestSearchVideoRescalesEachFrameOnce extends the raster invariant to
// query-by-clip: selection samples each in-memory frame's signature
// directly, and only key frames are rescaled, once each, as on ingest.
func TestSearchVideoRescalesEachFrameOnce(t *testing.T) {
	eng := openTestEngine(t)
	ingest(t, eng, "movie_00", synthvid.Movie, 12)
	clip := genVideo(synthvid.Movie, 13).Frames
	if _, err := eng.SearchVideoCtx(context.Background(), clip, SearchOptions{K: 1}); err != nil {
		t.Fatal(err)
	}
	kfs, err := keyframe.Extractor{Threshold: eng.opts.KeyframeThreshold}.Extract(clip)
	if err != nil {
		t.Fatal(err)
	}
	start := imaging.RescaleCalls()
	if _, err := eng.SearchVideoCtx(context.Background(), clip, SearchOptions{K: 1}); err != nil {
		t.Fatal(err)
	}
	checkRescales(t, "clip search", imaging.RescaleCalls()-start, len(clip), len(kfs))
}

// TestSearchVideoConcurrentWithReindex runs clip searches on several
// goroutines while re-index rebuilds the corpus: both draw on the planes
// pool, analysis rasters included, at once. Re-index rebuilds bit-identical
// rows, so every search must return exactly the quiet-engine ranking.
func TestSearchVideoConcurrentWithReindex(t *testing.T) {
	eng := openTestEngine(t)
	res := ingest(t, eng, "sports_00", synthvid.Sports, 40)
	ingest(t, eng, "news_00", synthvid.News, 41)
	clip := genVideo(synthvid.Sports, 42).Frames
	want, err := eng.SearchVideoCtx(context.Background(), clip, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				got, err := eng.SearchVideoCtx(context.Background(), clip, SearchOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent clip search ranked %+v, want %+v", got, want)
					return
				}
			}
		}()
	}
	for i := 0; i < 3; i++ {
		if _, err := eng.ReindexVideoCtx(context.Background(), res.VideoID); err != nil {
			t.Error(err)
		}
	}
	wg.Wait()
}

// TestSearchVideoMatchesReferenceExtraction pins query-by-clip on the
// pooled pipeline to the unpooled reference: keyframe.Extract's key
// frames, each described through fresh planes (which
// features.TestSharedPlaneBitIdentity pins to the per-extractor
// reference), then the same DTW search.
// Rankings and distances must agree bit for bit at one extraction and
// search worker and at several.
func TestSearchVideoMatchesReferenceExtraction(t *testing.T) {
	eng := openTestEngine(t)
	for i, cat := range []synthvid.Category{synthvid.Sports, synthvid.Nature, synthvid.News} {
		ingest(t, eng, cat.String()+"_00", cat, int64(80+i))
	}
	clip := genVideo(synthvid.Sports, 91).Frames
	kfs, err := keyframe.Extractor{Threshold: eng.opts.KeyframeThreshold}.Extract(clip)
	if err != nil {
		t.Fatal(err)
	}
	if len(kfs) < 2 {
		t.Fatalf("degenerate fixture: %d key frames", len(kfs))
	}
	qsets := make([]*features.Set, len(kfs))
	for i, k := range kfs {
		qsets[i] = features.NewPlanes(k.Image).ExtractAll()
	}
	ctx := context.Background()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, max(4, runtime.GOMAXPROCS(0))} {
		runtime.GOMAXPROCS(workers) // extraction pool size
		for _, opt := range []SearchOptions{
			{Workers: workers},
			{K: 2, Workers: workers, Kinds: []features.Kind{features.KindGabor, features.KindHistogram}},
		} {
			want, err := eng.searchVideoSets(ctx, qsets, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.SearchVideoCtx(ctx, clip, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) == 0 || !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d K=%d: pooled clip search\n%+v\nwant reference\n%+v", workers, opt.K, got, want)
			}
		}
	}
}

// TestDescribeKeyFramesPanicReleasesWorkers: a produce that panics after
// submitting a job must still close the queue and wait out the workers, so
// a recovered panic leaves no extraction goroutine blocked on the channel.
func TestDescribeKeyFramesPanicReleasesWorkers(t *testing.T) {
	eng := openTestEngine(t)
	baseline := runtime.NumGoroutine()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("produce's panic did not reach the caller")
			}
		}()
		eng.describeKeyFrames(func(submit func(*kfJob)) error {
			submit(&kfJob{src: imaging.New(32, 32).Source()})
			panic("produce failed")
		})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, %d before the panic", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
