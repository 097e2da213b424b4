package core

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

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
	if _, err := eng.SearchVideo(clip, SearchOptions{K: 1}); err != nil {
		t.Fatal(err)
	}
	kfs, err := keyframe.Extractor{Threshold: eng.opts.KeyframeThreshold}.Extract(clip)
	if err != nil {
		t.Fatal(err)
	}
	start := imaging.RescaleCalls()
	if _, err := eng.SearchVideo(clip, SearchOptions{K: 1}); err != nil {
		t.Fatal(err)
	}
	checkRescales(t, "clip search", imaging.RescaleCalls()-start, len(clip), len(kfs))
}

// TestSearchVideoConcurrentWithReindex runs clip searches on several
// goroutines while re-index rebuilds the corpus: both draw on the engine's
// raster pool and the planes pool at once. Re-index rebuilds bit-identical
// rows, so every search must return exactly the quiet-engine ranking.
func TestSearchVideoConcurrentWithReindex(t *testing.T) {
	eng := openTestEngine(t)
	res := ingest(t, eng, "sports_00", synthvid.Sports, 40)
	ingest(t, eng, "news_00", synthvid.News, 41)
	clip := genVideo(synthvid.Sports, 42).Frames
	want, err := eng.SearchVideo(clip, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				got, err := eng.SearchVideo(clip, SearchOptions{})
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
		if _, err := eng.ReindexVideo(res.VideoID); err != nil {
			t.Error(err)
		}
	}
	wg.Wait()
}

// TestSearchVideoMatchesReferenceExtraction pins query-by-clip on the
// pooled pipeline to the unpooled reference: keyframe.Extract's key
// frames, each described by ExtractAllReference, then the same DTW search.
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
		qsets[i] = features.ExtractAllReference(k.Image)
	}
	ctx := context.Background()
	for _, workers := range []int{1, max(4, runtime.GOMAXPROCS(0))} {
		eng.opts.Workers = workers // extraction pool size
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
