package core

import (
	"context"
	"sync"
	"testing"

	"cbvr/internal/features"
	"cbvr/internal/synthvid"
)

// TestConcurrentSearchIngestDelete hammers one engine from several
// goroutines — frame searches, video searches, ingests and deletes — to
// pin down Engine.mu and shard-local state safety. Run it under the race
// detector (`go test -race ./internal/core/...`); the assertions here are
// deliberately weak (no panics, no errors, sane results) because the
// interesting failures are data races and torn shard state.
func TestConcurrentSearchIngestDelete(t *testing.T) {
	eng := openTestEngine(t)

	// Seed corpus that is never deleted, so searches always have data.
	seed := ingest(t, eng, "seed_sports", synthvid.Sports, 400)
	ingest(t, eng, "seed_news", synthvid.News, 401)
	ingest(t, eng, "seed_cartoon", synthvid.Cartoon, 402)

	// Pre-extract query descriptors so searcher goroutines spend their
	// time inside the scoring pipeline, not in feature extraction.
	sv := genVideo(synthvid.Sports, 400)
	qset := eng.ExtractQuerySets(sv.Frames[:1])[0]
	qbucket := QueryBucket(sv.Frames[0])
	clipSets := eng.ExtractQuerySets(sv.Frames[:3])

	const (
		searchers  = 4
		searchIter = 30
		churnIter  = 6
	)
	small := func(seedN int64) *synthvid.Video {
		return synthvid.Generate(synthvid.Movie, synthvid.Config{
			Width: 48, Height: 36, Frames: 4, Shots: 2, Seed: seedN,
		})
	}

	var wg sync.WaitGroup
	errCh := make(chan error, searchers+2)

	// Frame searchers: alternate fusion modes, pruning, worker counts.
	for s := 0; s < searchers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < searchIter; i++ {
				opt := SearchOptions{
					K:         5,
					Fusion:    Fusion(i % 2),
					NoPruning: i%3 == 0,
					Workers:   s % 3, // 0 (default), 1 (serial), 2
				}
				m, err := eng.SearchWithSet(qset, qbucket, opt)
				if err != nil {
					errCh <- err
					return
				}
				if len(m) == 0 {
					errCh <- errNoMatches
					return
				}
			}
		}(s)
	}

	// Video-level searcher: best-single-frame ablation path (cheap) plus
	// the DTW path every few iterations.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < searchIter/2; i++ {
			if _, err := eng.BestSingleFrameVideoSearch(clipSets, SearchOptions{K: 3}); err != nil {
				errCh <- err
				return
			}
			if i%5 == 0 {
				if _, err := eng.searchVideoSets(context.Background(), clipSets, SearchOptions{K: 3}); err != nil {
					errCh <- err
					return
				}
			}
		}
	}()

	// Churner: ingest small clips and delete them again, interleaved with
	// the searches above.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < churnIter; i++ {
			v := small(int64(500 + i))
			res, err := eng.IngestFramesCtx(context.Background(), v.Name, v.Frames, v.FPS)
			if err != nil {
				errCh <- err
				return
			}
			if err := eng.DeleteVideo(res.VideoID); err != nil {
				errCh <- err
				return
			}
		}
	}()

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// The seed corpus must have survived the churn intact.
	m, err := eng.SearchWithSet(qset, qbucket, SearchOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 1 || m[0].VideoID != seed.VideoID {
		t.Fatalf("post-churn top match %+v, want video %d", m, seed.VideoID)
	}
	checkBucketColumn(t, eng, "post-churn")
}

// errNoMatches distinguishes the "search returned nothing while the seed
// corpus exists" failure inside racing goroutines.
var errNoMatches = errNoMatchesT{}

type errNoMatchesT struct{}

func (errNoMatchesT) Error() string { return "core: search returned no matches for seeded corpus" }

// TestConcurrentWarmup opens a second engine over an already-populated
// database and lets many goroutines race the lazy warmCache.
func TestConcurrentWarmup(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/warm.db"
	eng, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v := genVideo(synthvid.Nature, 410)
	if _, err := eng.IngestFramesCtx(context.Background(), "warm", v.Frames, v.FPS); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng2, err := Open(path, Options{SearchShards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	qset := eng2.ExtractQuerySets(v.Frames[:1])[0]
	qbucket := QueryBucket(v.Frames[0])

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := eng2.SearchWithSet(qset, qbucket, SearchOptions{K: 1, NoPruning: true})
			if err != nil {
				errCh <- err
				return
			}
			if len(m) != 1 {
				errCh <- errNoMatches
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	var kinds []features.Kind // nil: all kinds, exercise full warm cache
	if _, err := eng2.SearchWithSet(qset, qbucket, SearchOptions{Kinds: kinds}); err != nil {
		t.Fatal(err)
	}
}
