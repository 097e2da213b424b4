package core

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"cbvr/internal/features"
	"cbvr/internal/imaging"
	"cbvr/internal/rangeindex"
	"cbvr/internal/synthvid"
)

// searchFixture is a populated engine plus pre-extracted query descriptor
// sets, shared by the equivalence tests (building it is the expensive
// part: full feature extraction for every ingested key frame).
type searchFixture struct {
	eng    *Engine
	qsets  []*features.Set
	qbkts  []rangeindex.Range
	frames int
}

var (
	fixtureOnce sync.Once
	fixture     *searchFixture
	fixtureErr  error
)

// sharedFixture ingests one clip per category into an engine with a
// deliberately awkward shard count (5, so shards are uneven) and extracts
// descriptor sets for a mix of stored and unseen query frames. The
// database lives in a package-owned temp directory, not the first
// caller's t.TempDir(), whose cleanup would delete the still-open store
// before later tests reuse the fixture.
func sharedFixture(t *testing.T) *searchFixture {
	t.Helper()
	fixtureOnce.Do(func() {
		dir, err := os.MkdirTemp("", "cbvr-eq-*")
		if err != nil {
			fixtureErr = err
			return
		}
		eng, err := Open(filepath.Join(dir, "eq.db"), Options{SearchShards: 5})
		if err != nil {
			fixtureErr = err
			return
		}
		cats := []synthvid.Category{
			synthvid.Elearning, synthvid.Sports, synthvid.Cartoon,
			synthvid.Movie, synthvid.News, synthvid.Nature,
		}
		var queryFrames []*imaging.Image
		for i, cat := range cats {
			v := synthvid.Generate(cat, synthvid.Config{
				Width: 96, Height: 72, Frames: 14, Shots: 4, Seed: int64(100 + i),
			})
			if _, err := eng.IngestFramesCtx(context.Background(), v.Name, v.Frames, v.FPS); err != nil {
				fixtureErr = err
				return
			}
			// One stored frame and one unseen frame per category.
			queryFrames = append(queryFrames, v.Frames[0])
			u := synthvid.Generate(cat, synthvid.Config{
				Width: 96, Height: 72, Frames: 3, Shots: 1, Seed: int64(900 + i),
			})
			queryFrames = append(queryFrames, u.Frames[1])
		}
		f := &searchFixture{eng: eng}
		f.qsets = eng.ExtractQuerySets(queryFrames)
		for _, fr := range queryFrames {
			f.qbkts = append(f.qbkts, QueryBucket(fr))
		}
		n, err := eng.CacheSize()
		if err != nil {
			fixtureErr = err
			return
		}
		f.frames = n
		fixture = f
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixture
}

// TestShardedSearchMatchesReference is the table-driven equivalence
// suite: K ∈ {1, 5, all}, both fusion modes, pruning on and off,
// single-feature subsets and weighted min-max, each checked at several
// worker counts against the retained naive full-sort reference, bit for
// bit.
func TestShardedSearchMatchesReference(t *testing.T) {
	f := sharedFixture(t)
	if f.frames < 20 {
		t.Fatalf("fixture too small: %d key frames", f.frames)
	}

	type tcase struct {
		name string
		opt  SearchOptions
	}
	var cases []tcase
	for _, k := range []int{1, 5, 0} {
		for _, fus := range []Fusion{FusionRRF, FusionMinMax} {
			for _, noPrune := range []bool{false, true} {
				cases = append(cases, tcase{
					name: fmt.Sprintf("k=%d/fusion=%d/noprune=%v", k, fus, noPrune),
					opt:  SearchOptions{K: k, Fusion: fus, NoPruning: noPrune},
				})
			}
		}
	}
	for _, kind := range features.AllKinds() {
		cases = append(cases, tcase{
			name: fmt.Sprintf("single/%v", kind),
			opt:  SearchOptions{K: 3, Kinds: []features.Kind{kind}, NoPruning: true},
		})
	}
	cases = append(cases,
		tcase{
			name: "weighted-minmax",
			opt: SearchOptions{
				K:         7,
				Kinds:     []features.Kind{features.KindHistogram, features.KindGLCM, features.KindGabor},
				Weights:   []float64{3, 1, 0.5},
				Fusion:    FusionMinMax,
				NoPruning: true,
			},
		},
		tcase{
			name: "zero-weights-minmax",
			opt: SearchOptions{
				K:         4,
				Kinds:     []features.Kind{features.KindHistogram, features.KindGLCM},
				Weights:   []float64{0, 0},
				Fusion:    FusionMinMax,
				NoPruning: true,
			},
		},
	)

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for qi := range f.qsets {
				want, err := f.eng.SearchWithSetReference(f.qsets[qi], f.qbkts[qi], tc.opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 2, 0} {
					opt := tc.opt
					opt.Workers = workers
					got, err := f.eng.SearchWithSet(f.qsets[qi], f.qbkts[qi], opt)
					if err != nil {
						t.Fatal(err)
					}
					requireBitIdentical(t, fmt.Sprintf("query %d workers %d", qi, workers), got, want)
				}
			}
		})
	}
}

// TestShardedSearchSingleShardEngine pins the degenerate configuration:
// one shard, one worker must still agree with the reference bit for bit.
func TestShardedSearchSingleShardEngine(t *testing.T) {
	eng, err := Open(t.TempDir()+"/one.db", Options{SearchShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	v := genVideo(synthvid.Sports, 301)
	if _, err := eng.IngestFramesCtx(context.Background(), "s", v.Frames, v.FPS); err != nil {
		t.Fatal(err)
	}
	if len(eng.arenas) != 1 {
		t.Fatalf("shards = %d", len(eng.arenas))
	}
	qset := eng.ExtractQuerySets(v.Frames[:1])[0]
	bucket := QueryBucket(v.Frames[0])
	want, err := eng.SearchWithSetReference(qset, bucket, SearchOptions{NoPruning: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.SearchWithSet(qset, bucket, SearchOptions{NoPruning: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "single shard", got, want)
}

// TestSearchMissingQueryDescriptor checks both implementations reject a
// query set lacking a requested descriptor the same way.
func TestSearchMissingQueryDescriptor(t *testing.T) {
	f := sharedFixture(t)
	empty := &features.Set{}
	opt := SearchOptions{Kinds: []features.Kind{features.KindGabor}}
	if _, err := f.eng.SearchWithSet(empty, f.qbkts[0], opt); err == nil {
		t.Error("pipeline accepted query without gabor descriptor")
	}
	if _, err := f.eng.SearchWithSetReference(empty, f.qbkts[0], opt); err == nil {
		t.Error("reference accepted query without gabor descriptor")
	}

	// The implementations must also agree on the missing-descriptor +
	// zero-candidate edge: both validate descriptors before scanning.
	eng, err := Open(t.TempDir()+"/empty.db", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.SearchWithSet(empty, f.qbkts[0], opt); err == nil {
		t.Error("pipeline accepted descriptor-less query on empty engine")
	}
	if _, err := eng.SearchWithSetReference(empty, f.qbkts[0], opt); err == nil {
		t.Error("reference accepted descriptor-less query on empty engine")
	}
}

// TestSearchRejectsInvalidOptions checks that every search entry point
// returns an error, instead of panicking, for a kind outside the kind table,
// for a kind listed twice, for min-max weights that do not align with the
// kinds and for a NaN, infinite or negative weight.
func TestSearchRejectsInvalidOptions(t *testing.T) {
	f := sharedFixture(t)
	ctx := context.Background()
	qset, qbkt := f.qsets[0], f.qbkts[0]
	clip := synthvid.Generate(synthvid.Sports, synthvid.Config{Width: 96, Height: 72, Frames: 4, Shots: 1, Seed: 7}).Frames
	for name, opt := range map[string]SearchOptions{
		"unknown-kind":     {K: 3, Kinds: []features.Kind{42}},
		"negative-kind":    {K: 3, Kinds: []features.Kind{-1}},
		"duplicate-kind":   {K: 3, Kinds: []features.Kind{features.KindHistogram, features.KindHistogram}},
		"weights-mismatch": {K: 3, Kinds: []features.Kind{features.KindHistogram, features.KindGLCM}, Weights: []float64{1, 2, 3}, Fusion: FusionMinMax},
		"weights-for-all":  {K: 3, Weights: []float64{1}, Fusion: FusionMinMax},
		"weight-nan":       {K: 3, Kinds: []features.Kind{features.KindHistogram, features.KindGLCM}, Weights: []float64{1, math.NaN()}, Fusion: FusionMinMax},
		"weight-inf":       {K: 3, Kinds: []features.Kind{features.KindHistogram, features.KindGLCM}, Weights: []float64{math.Inf(1), 1}, Fusion: FusionMinMax},
		"weight-negative":  {K: 3, Kinds: []features.Kind{features.KindHistogram, features.KindGLCM}, Weights: []float64{1, -1}, Fusion: FusionMinMax},
	} {
		t.Run(name, func(t *testing.T) {
			calls := map[string]func() error{
				"SearchWithSet": func() error { _, err := f.eng.SearchWithSet(qset, qbkt, opt); return err },
				"SearchWithSetReference": func() error {
					_, err := f.eng.SearchWithSetReference(qset, qbkt, opt)
					return err
				},
				"SearchFrame":    func() error { _, err := f.eng.SearchFrame(clip[0], opt); return err },
				"SearchVideoCtx": func() error { _, err := f.eng.SearchVideoCtx(ctx, clip, opt); return err },
				"searchVideoSets": func() error {
					_, err := f.eng.searchVideoSets(ctx, []*features.Set{qset}, opt)
					return err
				},
				"BestSingleFrameVideoSearch": func() error {
					_, err := f.eng.BestSingleFrameVideoSearch([]*features.Set{qset}, opt)
					return err
				},
			}
			for call, fn := range calls {
				if err := fn(); err == nil {
					t.Errorf("%s accepted %+v", call, opt)
				}
			}
		})
	}
}

// TestVideoSearchDeterministicAcrossWorkers runs the parallel video-level
// searches at several worker counts and requires identical rankings.
func TestVideoSearchDeterministicAcrossWorkers(t *testing.T) {
	f := sharedFixture(t)
	clip := synthvid.Generate(synthvid.Sports, synthvid.Config{
		Width: 96, Height: 72, Frames: 8, Shots: 2, Seed: 101,
	})
	qsets := f.eng.ExtractQuerySets(clip.Frames[:4])

	var refDTW []VideoMatch
	var refBest []VideoMatch
	for _, workers := range []int{1, 2, 0} {
		opt := SearchOptions{K: 0, Workers: workers}
		dtw, err := f.eng.searchVideoSets(context.Background(), qsets, opt)
		if err != nil {
			t.Fatal(err)
		}
		best, err := f.eng.BestSingleFrameVideoSearch(qsets, opt)
		if err != nil {
			t.Fatal(err)
		}
		if refDTW == nil {
			refDTW, refBest = dtw, best
			if len(refDTW) == 0 || len(refBest) == 0 {
				t.Fatal("no video results")
			}
			continue
		}
		for i := range refDTW {
			if dtw[i] != refDTW[i] {
				t.Fatalf("workers=%d: DTW rank %d = %+v, want %+v", workers, i, dtw[i], refDTW[i])
			}
		}
		for i := range refBest {
			if best[i] != refBest[i] {
				t.Fatalf("workers=%d: best-frame rank %d = %+v, want %+v", workers, i, best[i], refBest[i])
			}
		}
	}
}
