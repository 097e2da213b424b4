package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"cbvr/internal/features"
	"cbvr/internal/rangeindex"
	"cbvr/internal/synthvid"
)

// forcedCells drops every activation floor so cell pruning engages on the
// small corpora unit tests can afford: tiny shards build cells, tiny
// budgets force real probing, and a low rebuildFraction exercises
// rebuilds under modest churn.
func forcedCells() cellConfig {
	return cellConfig{minShardRows: 1, targetCellSize: 8, minProbeRows: 16, probeFraction: 0.07, rebuildFraction: 0.25}
}

func openCellEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	eng, err := Open(filepath.Join(t.TempDir(), "cells.db"), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// loadClusterFrames publishes the first n frames of the cluster corpus
// into the engine and returns them.
func loadClusterFrames(t *testing.T, eng *Engine, cfg synthvid.ClusterCorpusConfig) []SyntheticFrame {
	t.Helper()
	var frames []SyntheticFrame
	err := synthvid.StreamClusterCorpus(cfg, func(f *synthvid.DescriptorFrame) error {
		frames = append(frames, SyntheticFrame{
			ID: f.ID, VideoID: f.VideoID, VideoName: f.VideoName,
			FrameIndex: f.FrameIndex, Bucket: f.Bucket, Set: f.Set,
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.PublishSyntheticFrames(frames, setsOf(frames)); err != nil {
		t.Fatal(err)
	}
	return frames
}

// setsOf is a PublishSyntheticFrames regenerator over the sets the frames
// were built with.
func setsOf(frames []SyntheticFrame) func(int64) *features.Set {
	sets := make(map[int64]*features.Set, len(frames))
	for _, f := range frames {
		sets[f.ID] = f.Set
	}
	return func(id int64) *features.Set { return sets[id] }
}

// checkCellSingleKindIdentity asserts the cell-pruned single-kind path is
// bit-identical to the naive reference for every kind at several K — the
// tentpole's exactness claim. It also verifies the pruned path actually
// engaged (stats show pruned shards), so the equivalence isn't vacuously
// tested through the exact fallback.
func checkCellSingleKindIdentity(t *testing.T, eng *Engine, qset *features.Set, qbucket rangeindex.Range, label string, wantPruned bool) {
	t.Helper()
	prunedSeen := false
	for _, kind := range features.AllKinds() {
		for _, k := range []int{1, 7, 10} {
			opt := SearchOptions{K: k, Kinds: []features.Kind{kind}}
			want, err := eng.SearchWithSetReference(qset, qbucket, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, stats, err := eng.SearchWithSetStats(qset, qbucket, opt)
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, fmt.Sprintf("%s kind=%d k=%d", label, kind, k), got, want)
			if stats.PrunedShards > 0 {
				prunedSeen = true
			}
		}
	}
	if wantPruned && !prunedSeen {
		t.Fatalf("%s: no single-kind search took the pruned path", label)
	}
}

// TestCellSingleKindBitIdentity forces cell pruning on a clustered corpus
// and requires the threshold traversal to reproduce the reference ranking
// bit for bit across all seven kinds.
func TestCellSingleKindBitIdentity(t *testing.T) {
	eng := openCellEngine(t, Options{SearchShards: 3, cells: forcedCells()})
	cfg := synthvid.ClusterCorpusConfig{Frames: 900, Clusters: 12, Seed: 11}
	loadClusterFrames(t, eng, cfg)
	for qi, q := range synthvid.ClusterQueries(cfg, 4) {
		checkCellSingleKindIdentity(t, eng, q.Set, q.Bucket, fmt.Sprintf("query %d", qi), true)
	}
	st, err := eng.CellStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.BuiltShards != 3 || st.Cells == 0 || st.IndexedRows != 900 {
		t.Fatalf("cell stats %+v: want 3 built shards indexing 900 rows", st)
	}
}

// checkCellFusedIdentity asserts the fused RRF search is bit-identical to
// the naive reference (IDs, order and Distance) for K in {1, 10, 100},
// over all seven kinds and two subsets, with and without the bucket
// filter; with thorough unset, over all seven kinds with the filter only.
// It returns how many searches ended by each stop reason, so callers can
// require that the traversal engaged.
func checkCellFusedIdentity(t *testing.T, eng *Engine, qset *features.Set, qbucket rangeindex.Range, label string, thorough bool) map[string]int {
	t.Helper()
	stops := make(map[string]int)
	kindSets := [][]features.Kind{nil}
	noPrunes := []bool{false}
	if thorough {
		kindSets = append(kindSets,
			[]features.Kind{features.KindNaive, features.KindHistogram},
			[]features.Kind{features.KindGabor, features.KindTamura, features.KindRegions})
		noPrunes = append(noPrunes, true)
	}
	for _, kinds := range kindSets {
		for _, k := range []int{1, 10, 100} {
			for _, noPrune := range noPrunes {
				opt := SearchOptions{K: k, Kinds: kinds, NoPruning: noPrune}
				want, err := eng.SearchWithSetReference(qset, qbucket, opt)
				if err != nil {
					t.Fatal(err)
				}
				got, stats, err := eng.SearchWithSetStats(qset, qbucket, opt)
				if err != nil {
					t.Fatal(err)
				}
				requireBitIdentical(t, fmt.Sprintf("%s kinds=%v k=%d noprune=%v", label, kinds, k, noPrune), got, want)
				stops[stats.Stop]++
			}
		}
	}
	return stops
}

// TestCellFusedBitIdentity pins the fused RRF traversal to the reference
// bit for bit on forced-cell corpora built to stress it: clustered rows;
// planted ties (duplicated rows tie in every kind, lattice naive
// signatures tie in one, and the two-kind subset ties scores whenever two
// rows swap ranks); rows missing kinds (ranked last at missingDistance);
// and a shard below minShardRows beside one with cells, which takes part
// as one pseudo-cell. Both the threshold stop and the sweep fallback must
// occur.
func TestCellFusedBitIdentity(t *testing.T) {
	stops := make(map[string]int)
	add := func(m map[string]int) {
		for k, v := range m {
			stops[k] += v
		}
	}

	t.Run("clustered", func(t *testing.T) {
		eng := openCellEngine(t, Options{SearchShards: 3, cells: forcedCells()})
		cfg := synthvid.ClusterCorpusConfig{Frames: 900, Clusters: 12, Seed: 11}
		loadClusterFrames(t, eng, cfg)
		for qi, q := range synthvid.ClusterQueries(cfg, 3) {
			add(checkCellFusedIdentity(t, eng, q.Set, q.Bucket, fmt.Sprintf("query %d", qi), true))
		}
	})

	t.Run("planted_ties", func(t *testing.T) {
		eng := openCellEngine(t, Options{SearchShards: 2, cells: forcedCells()})
		frames := latticeFrames(500, 2, 43)
		for i := 0; i < 500; i += 4 {
			dup := frames[i]
			dup.ID += 100000
			frames = append(frames, dup)
		}
		if err := eng.PublishSyntheticFrames(frames, setsOf(frames)); err != nil {
			t.Fatal(err)
		}
		for _, i := range []int{0, 8, 17} {
			add(checkCellFusedIdentity(t, eng, frames[i].Set, frames[i].Bucket, fmt.Sprintf("frame %d", i), true))
		}
	})

	t.Run("missing_kinds", func(t *testing.T) {
		eng := openCellEngine(t, Options{SearchShards: 2, cells: forcedCells()})
		frames := dropKinds(clusterFrames(600, 47), 5, 3)
		if err := eng.PublishSyntheticFrames(frames, setsOf(frames)); err != nil {
			t.Fatal(err)
		}
		q := synthvid.ClusterQueries(synthvid.ClusterCorpusConfig{Frames: 600, Seed: 47}, 2)
		for qi := range q {
			add(checkCellFusedIdentity(t, eng, q[qi].Set, q[qi].Bucket, fmt.Sprintf("query %d", qi), true))
		}
	})

	t.Run("pseudo_cell_shard", func(t *testing.T) {
		cells := forcedCells()
		cells.minShardRows = 200
		eng := openCellEngine(t, Options{SearchShards: 2, cells: cells})
		// Even IDs land on shard 0, odd on shard 1: 520 rows against 80.
		frames := clusterFrames(600, 53)
		for i := range frames {
			frames[i].ID = int64(2*i + 2)
			if i >= 520 {
				frames[i].ID = int64(2*(i-520) + 1)
			}
		}
		if err := eng.PublishSyntheticFrames(frames, setsOf(frames)); err != nil {
			t.Fatal(err)
		}
		q := synthvid.ClusterQueries(synthvid.ClusterCorpusConfig{Frames: 600, Seed: 53}, 2)
		for qi := range q {
			add(checkCellFusedIdentity(t, eng, q[qi].Set, q[qi].Bucket, fmt.Sprintf("query %d", qi), true))
			_, st, err := eng.SearchWithSetStats(q[qi].Set, q[qi].Bucket, SearchOptions{K: 10, NoPruning: true})
			if err != nil {
				t.Fatal(err)
			}
			if st.PrunedShards != 1 || st.ExactShards != 1 || st.Stop == "" {
				t.Fatalf("query %d: stats %+v, want a traversal over one cell shard and one pseudo-cell", qi, st)
			}
		}
	})

	t.Logf("stop reasons: %v", stops)
	if stops[StopThreshold] == 0 || stops[StopSweep] == 0 {
		t.Fatalf("stop reasons %v: want both the threshold stop and the sweep fallback exercised", stops)
	}
}

// TestCellFusedProbeBudget pins the fused min-max probe's work contract:
// it pays at most the budget per shard (plus centroid bounds), never
// returns an error, and its candidates are a strict subset of the exact
// arm's work.
func TestCellFusedProbeBudget(t *testing.T) {
	eng := openCellEngine(t, Options{SearchShards: 3, cells: forcedCells()})
	cfg := synthvid.ClusterCorpusConfig{Frames: 900, Clusters: 12, Seed: 13}
	loadClusterFrames(t, eng, cfg)

	q := synthvid.ClusterQueries(cfg, 1)[0]
	got, stats, err := eng.SearchWithSetStats(q.Set, q.Bucket, SearchOptions{K: 10, Fusion: FusionMinMax})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("fused pruned search returned %d matches, want 10", len(got))
	}
	if stats.PrunedShards == 0 {
		t.Fatal("fused search never took the pruned path")
	}
	if stats.RowEvals >= stats.ExactEvals() {
		t.Fatalf("probe paid %d row evals, exact sweep costs %d", stats.RowEvals, stats.ExactEvals())
	}
	if stats.CellEvals == 0 {
		t.Fatal("pruned path reported no centroid bound evaluations")
	}
	// Budget accounting: per pruned shard the probe scores at most
	// max(minProbeRows, probeFraction*n0, K) rows (the gather truncates
	// at the budget exactly).
	perShard := stats.BaseRows // upper bound on any one shard's n0
	budget := int64(16)
	if f := int64(float64(perShard) * 0.07); f > budget {
		budget = f
	}
	if maxRows := budget * int64(stats.PrunedShards); stats.RowEvals > maxRows*int64(stats.Kinds) {
		t.Fatalf("row evals %d exceed budget bound %d", stats.RowEvals, maxRows*int64(stats.Kinds))
	}

	// The exact arm of the same query must report zero pruned shards and
	// full base-row work.
	_, ex, err := eng.SearchWithSetStats(q.Set, q.Bucket, SearchOptions{K: 10, Fusion: FusionMinMax, NoCellPruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if ex.PrunedShards != 0 {
		t.Fatalf("NoCellPruning arm still pruned %d shards", ex.PrunedShards)
	}
	if ex.RowEvals != ex.ExactEvals() {
		t.Fatalf("exact arm paid %d row evals, want %d", ex.RowEvals, ex.ExactEvals())
	}
}

// TestCellProbeBudgetExact pins plan's budget as the probe's exact work:
// with the §4.2 bucket off, every pruned shard scores exactly
// max(minProbeRows, probeFraction*n0, K) rows per kind — the floor when
// the fraction is negligible, K once K passes the floor, and the fraction
// when it passes both.
func TestCellProbeBudgetExact(t *testing.T) {
	cfg := synthvid.ClusterCorpusConfig{Frames: 1000, Seed: 3}
	cells := cellConfig{minShardRows: 1, targetCellSize: 8, minProbeRows: 16, rebuildFraction: 0.25}
	for _, tc := range []struct {
		name     string
		fraction float64
		k        int
		budget   func(n0 int) int
	}{
		{"floor", 1e-6, 10, func(int) int { return 16 }},
		{"k_above_floor", 1e-6, 40, func(int) int { return 40 }},
		{"fraction", 0.25, 10, func(n0 int) int { return int(0.25 * float64(n0)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cells.probeFraction = tc.fraction
			eng := openCellEngine(t, Options{SearchShards: 2, cells: cells})
			loadClusterFrames(t, eng, cfg)
			var want int64
			for _, ar := range eng.arenas {
				want += int64(tc.budget(len(ar.live)))
			}
			for qi, q := range synthvid.ClusterQueries(cfg, 3) {
				_, stats, err := eng.SearchWithSetStats(q.Set, q.Bucket, SearchOptions{K: tc.k, NoPruning: true, Fusion: FusionMinMax})
				if err != nil {
					t.Fatal(err)
				}
				if stats.PrunedShards != len(eng.arenas) {
					t.Fatalf("query %d: %d of %d shards probed", qi, stats.PrunedShards, len(eng.arenas))
				}
				if got := stats.RowEvals; got != want*int64(stats.Kinds) {
					t.Fatalf("query %d: probe paid %d row evals, want %d rows × %d kinds", qi, got, want, stats.Kinds)
				}
			}
		})
	}
}

// TestCellExactFallbacks pins every condition that must route a search to
// the exact sweep: corpora under the shard floor, K covering the shard,
// per-call and per-engine opt-outs, and queries over kinds the corpus
// largely lacks (degenerate feature mixes stay bit-identical).
func TestCellExactFallbacks(t *testing.T) {
	t.Run("below_min_shard_rows", func(t *testing.T) {
		// Default options: minShardRows=512 with 90 rows over 3 shards —
		// every search must take the exact path and remain bit-identical.
		eng := openCellEngine(t, Options{SearchShards: 3})
		cfg := synthvid.ClusterCorpusConfig{Frames: 90, Clusters: 6, Seed: 17}
		loadClusterFrames(t, eng, cfg)
		q := synthvid.ClusterQueries(cfg, 1)[0]
		_, stats, err := eng.SearchWithSetStats(q.Set, q.Bucket, SearchOptions{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if stats.PrunedShards != 0 {
			t.Fatalf("tiny corpus pruned %d shards, want exact fallback", stats.PrunedShards)
		}
		checkCellSingleKindIdentity(t, eng, q.Set, q.Bucket, "tiny corpus", false)
	})

	t.Run("k_covers_shard", func(t *testing.T) {
		eng := openCellEngine(t, Options{SearchShards: 2, cells: forcedCells()})
		cfg := synthvid.ClusterCorpusConfig{Frames: 120, Clusters: 4, Seed: 19}
		loadClusterFrames(t, eng, cfg)
		q := synthvid.ClusterQueries(cfg, 1)[0]
		opt := SearchOptions{K: 500, Kinds: []features.Kind{features.KindNaive}}
		_, stats, err := eng.SearchWithSetStats(q.Set, q.Bucket, opt)
		if err != nil {
			t.Fatal(err)
		}
		if stats.PrunedShards != 0 {
			t.Fatalf("K >= shard rows still pruned %d shards", stats.PrunedShards)
		}
	})

	t.Run("opt_outs", func(t *testing.T) {
		eng := openCellEngine(t, Options{SearchShards: 2, cells: forcedCells()})
		cfg := synthvid.ClusterCorpusConfig{Frames: 400, Clusters: 6, Seed: 23}
		loadClusterFrames(t, eng, cfg)
		q := synthvid.ClusterQueries(cfg, 1)[0]
		_, on, err := eng.SearchWithSetStats(q.Set, q.Bucket, SearchOptions{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if on.PrunedShards == 0 {
			t.Fatal("pruning did not engage with forced cells")
		}
		_, off, err := eng.SearchWithSetStats(q.Set, q.Bucket, SearchOptions{K: 5, NoCellPruning: true})
		if err != nil {
			t.Fatal(err)
		}
		if off.PrunedShards != 0 {
			t.Fatalf("NoCellPruning pruned %d shards", off.PrunedShards)
		}
	})

	t.Run("degenerate_feature_mix", func(t *testing.T) {
		// Rows carrying only two of the seven kinds: searches over absent
		// kinds rank everything at missingDistance, searches over present
		// kinds prune normally — both bit-identical to the reference.
		eng := openCellEngine(t, Options{SearchShards: 2, cells: forcedCells()})
		cfg := synthvid.ClusterCorpusConfig{Frames: 300, Clusters: 4, Seed: 29}
		var frames []SyntheticFrame
		synthvid.StreamClusterCorpus(cfg, func(f *synthvid.DescriptorFrame) error {
			set := &features.Set{Naive: f.Set.Naive}
			if f.ID%3 == 0 {
				set.Histogram = f.Set.Histogram
			}
			frames = append(frames, SyntheticFrame{ID: f.ID, VideoID: f.VideoID, Bucket: f.Bucket, Set: set})
			return nil
		})
		if err := eng.PublishSyntheticFrames(frames, setsOf(frames)); err != nil {
			t.Fatal(err)
		}
		q := synthvid.ClusterQueries(cfg, 1)[0]
		checkCellSingleKindIdentity(t, eng, q.Set, q.Bucket, "degenerate mix", true)
	})
}

// TestCellChurnBitIdentity extends the arena churn suite to the cell
// index: bulk synthetic publishes, pixel-path ingest (slot reuse),
// reindex repack and delete swap-remove all mutate the cells, and after
// every mutation the forced-pruned single-kind and fused RRF searches
// must still match the reference bit for bit while concurrent searchers
// race the readers.
// Run under -race this pins the index's locking contract.
func TestCellChurnBitIdentity(t *testing.T) {
	eng := openCellEngine(t, Options{SearchShards: 3, cells: forcedCells()})
	cfg := synthvid.ClusterCorpusConfig{Frames: 600, Clusters: 8, Seed: 31}
	loadClusterFrames(t, eng, cfg)
	queries := synthvid.ClusterQueries(cfg, 2)

	stop := make(chan struct{})
	var searchErr atomic.Value
	var wg sync.WaitGroup
	for s := 0; s < 3; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			q := queries[s%len(queries)]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				opt := SearchOptions{K: 6, Fusion: Fusion(i % 2), NoCellPruning: i%3 == 0, Workers: s}
				if i%2 == 1 {
					opt.Kinds = []features.Kind{features.Kind(i % int(features.NumKinds))}
				}
				if _, err := eng.SearchWithSet(q.Set, q.Bucket, opt); err != nil {
					searchErr.Store(err)
					return
				}
			}
		}(s)
	}

	check := func(label string) {
		t.Helper()
		checkBucketColumn(t, eng, label)
		for qi, q := range queries {
			checkCellSingleKindIdentity(t, eng, q.Set, q.Bucket, fmt.Sprintf("%s q%d", label, qi), true)
			if stops := checkCellFusedIdentity(t, eng, q.Set, q.Bucket, fmt.Sprintf("%s q%d", label, qi), false); stops[StopThreshold] == 0 {
				t.Fatalf("%s q%d: stop reasons %v, no fused search certified by the threshold", label, qi, stops)
			}
		}
	}

	check("initial")
	var churnIDs []int64
	for round := 0; round < 3; round++ {
		cv := synthvid.Generate(synthvid.Movie, synthvid.Config{
			Width: 48, Height: 36, Frames: 6, Shots: 2, Seed: int64(800 + round),
		})
		res, err := eng.IngestFramesCtx(context.Background(), fmt.Sprintf("cell_churn_%d", round), cv.Frames, cv.FPS)
		if err != nil {
			t.Fatal(err)
		}
		churnIDs = append(churnIDs, res.VideoID)
		check(fmt.Sprintf("round %d after ingest", round))

		// A synthetic top-up big enough to trip rebuildFraction rebuilds.
		top := synthvid.ClusterCorpusConfig{Frames: 120, Clusters: 8, Seed: int64(900 + round)}
		var frames []SyntheticFrame
		synthvid.StreamClusterCorpus(top, func(f *synthvid.DescriptorFrame) error {
			frames = append(frames, SyntheticFrame{
				ID: f.ID + int64(100000*(round+1)), VideoID: f.VideoID + int64(10000*(round+1)),
				Bucket: f.Bucket, Set: f.Set,
			})
			return nil
		})
		if err := eng.PublishSyntheticFrames(frames, setsOf(frames)); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("round %d after bulk publish", round))

		if _, err := eng.ReindexVideoCtx(context.Background(), res.VideoID); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("round %d after reindex", round))

		if round%2 == 1 {
			if err := eng.DeleteVideo(churnIDs[round-1]); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("round %d after delete", round))
		}
	}

	st, err := eng.CellStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rebuilds <= st.Shards {
		t.Fatalf("churn triggered only %d rebuilds over %d shards; rebuildFraction never tripped", st.Rebuilds, st.Shards)
	}

	close(stop)
	wg.Wait()
	if err := searchErr.Load(); err != nil {
		t.Fatal(err)
	}
}

// cellSignature canonicalises a rebuilt index for comparison across
// insertion orders: per cell, the member key-frame IDs plus every kind's
// centroid and radius.
func cellSignature(t *testing.T, ar *shardArena, c *shardCells) string {
	t.Helper()
	sig := fmt.Sprintf("cells=%d\n", c.n)
	for ci := 0; ci < c.n; ci++ {
		ids := make([]int64, 0, len(c.members[ci]))
		for _, slot := range c.members[ci] {
			ids = append(ids, ar.ents[slot].id)
		}
		slices.Sort(ids)
		sig += fmt.Sprintf("cell %d members=%v\n", ci, ids)
		for _, kind := range features.AllKinds() {
			sig += fmt.Sprintf("  kind %d rad=%x cent=%x\n", kind, c.rad[kind][ci], c.centRow(kind, int32(ci)))
		}
	}
	return sig
}

// buildCellArena inserts the given frames into a fresh arena in slice
// order and rebuilds a cell index over it.
func buildCellArena(frames []SyntheticFrame) (*shardArena, *shardCells) {
	ar := newShardArena()
	for i := range frames {
		f := &frames[i]
		ar.insert(&frameEntry{id: f.ID, videoID: f.VideoID, bucket: f.Bucket}, f.Set)
	}
	c := newShardCells(forcedCells())
	c.rebuild(ar)
	return ar, c
}

// TestCellRebuildDeterminism pins that a rebuild is a pure function of
// shard contents: identical entry sets produce identical cells (members,
// centroids, radii — bit for bit) regardless of insertion order or
// intervening churn.
func TestCellRebuildDeterminism(t *testing.T) {
	cfg := synthvid.ClusterCorpusConfig{Frames: 160, Clusters: 6, Seed: 37}
	var frames []SyntheticFrame
	synthvid.StreamClusterCorpus(cfg, func(f *synthvid.DescriptorFrame) error {
		frames = append(frames, SyntheticFrame{ID: f.ID, VideoID: f.VideoID, Bucket: f.Bucket, Set: f.Set})
		return nil
	})

	arA, cA := buildCellArena(frames)
	want := cellSignature(t, arA, cA)

	reversed := slices.Clone(frames)
	slices.Reverse(reversed)
	arB, cB := buildCellArena(reversed)
	if got := cellSignature(t, arB, cB); got != want {
		t.Fatalf("reversed insertion produced different cells:\n--- want\n%s--- got\n%s", want, got)
	}

	shuffled := slices.Clone(frames)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	arC, cC := buildCellArena(shuffled)
	if got := cellSignature(t, arC, cC); got != want {
		t.Fatalf("shuffled insertion produced different cells:\n--- want\n%s--- got\n%s", want, got)
	}

	// Churned arena: insert everything, remove half (swap-remove scrambles
	// slot order), reinsert the removed half (free-slot reuse), rebuild.
	// Same final contents, so the cells must match bit for bit.
	arD := newShardArena()
	ents := make([]*frameEntry, len(frames))
	for i := range frames {
		f := &frames[i]
		ents[i] = &frameEntry{id: f.ID, videoID: f.VideoID, bucket: f.Bucket}
		arD.insert(ents[i], f.Set)
	}
	for i := 0; i < len(ents); i += 2 {
		arD.remove(ents[i])
	}
	for i := 0; i < len(ents); i += 2 {
		arD.insert(ents[i], frames[i].Set)
	}
	cD := newShardCells(forcedCells())
	cD.rebuild(arD)
	if got := cellSignature(t, arD, cD); got != want {
		t.Fatalf("churned arena produced different cells:\n--- want\n%s--- got\n%s", want, got)
	}
}

// FuzzCellRebuildDeterminism drives the same invariant with fuzzed
// insertion orders and churn patterns: whatever permutation and
// delete/reinsert interleaving the bytes encode, identical final contents
// must yield identical cells.
func FuzzCellRebuildDeterminism(f *testing.F) {
	f.Add([]byte{0x01, 0x80, 0xff}, uint8(48))
	f.Add([]byte{}, uint8(9))
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02}, uint8(96))
	cfg := synthvid.ClusterCorpusConfig{Frames: 128, Clusters: 5, Seed: 41}
	var all []SyntheticFrame
	synthvid.StreamClusterCorpus(cfg, func(fr *synthvid.DescriptorFrame) error {
		all = append(all, SyntheticFrame{ID: fr.ID, VideoID: fr.VideoID, Bucket: fr.Bucket, Set: fr.Set})
		return nil
	})

	f.Fuzz(func(t *testing.T, perm []byte, nRaw uint8) {
		n := int(nRaw)%len(all) + 1
		frames := all[:n]
		arA, cA := buildCellArena(frames)
		want := cellSignature(t, arA, cA)

		// Permute insertion order with the fuzz bytes (Fisher–Yates keyed
		// on the byte stream) and interleave churn: every third byte also
		// schedules a remove+reinsert of the entry it indexes.
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		for i, b := range perm {
			j := (i + int(b)) % n
			k := int(b) % n
			order[j], order[k] = order[k], order[j]
		}
		arB := newShardArena()
		ents := make([]*frameEntry, n)
		for _, idx := range order {
			fr := &frames[idx]
			ents[idx] = &frameEntry{id: fr.ID, videoID: fr.VideoID, bucket: fr.Bucket}
			arB.insert(ents[idx], fr.Set)
		}
		for i, b := range perm {
			if i%3 != 0 {
				continue
			}
			idx := int(b) % n
			arB.remove(ents[idx])
			arB.insert(ents[idx], frames[idx].Set)
		}
		cB := newShardCells(forcedCells())
		cB.rebuild(arB)
		if got := cellSignature(t, arB, cB); got != want {
			t.Fatalf("fuzzed order diverged (n=%d perm=%x):\n--- want\n%s--- got\n%s", n, perm, want, got)
		}
	})
}

// rebuildReference is the scalar cell rebuild the production rebuild must
// reproduce bit for bit: every routing distance is one PairDistance call,
// every row is scored against every centroid, every radius is a pair
// distance from member to centroid. It returns the routing-distance
// evaluations it paid.
func rebuildReference(c *shardCells, ar *shardArena) (evals int64) {
	c.built = true
	c.since = 0
	c.rebuilt++
	c.ensureSlots(len(ar.ents))

	n := len(ar.live)
	slots := slices.Clone(ar.live)
	slices.SortFunc(slots, func(a, b int32) int { return cmp.Compare(ar.ents[a].id, ar.ents[b].id) })

	k := (n + c.cfg.targetCellSize - 1) / c.cfg.targetCellSize
	k = max(1, min(k, maxCellsPerShard, n))

	routable := make([]int32, 0, n)
	for _, s := range slots {
		if ar.hasKind(cellRouteKind, s) {
			routable = append(routable, s)
		}
	}
	stride := features.Stride(cellRouteKind)
	var fit []float64
	if len(routable) > 0 {
		step := 1
		if len(routable) > cellFitSampleMax {
			step = (len(routable) + cellFitSampleMax - 1) / cellFitSampleMax
		}
		sample := make([]int32, 0, cellFitSampleMax)
		for i := 0; i < len(routable); i += step {
			sample = append(sample, routable[i])
		}
		k = min(k, len(sample))
		fit = fitRouteCentroidsReference(ar, sample, k, &evals)
		k = len(fit) / stride
	} else {
		k = 1
		fit = make([]float64, stride)
	}

	members := make([][]int32, k)
	for _, s := range slots {
		best := 0
		if ar.hasKind(cellRouteKind, s) {
			best = nearestCentroidReference(ar.row(cellRouteKind, s), fit, k, &evals)
		}
		members[best] = append(members[best], s)
	}
	c.members = members[:0:cap(members)]
	for _, mem := range members {
		if len(mem) > 0 {
			c.members = append(c.members, mem)
		}
	}
	c.n = len(c.members)

	for i := range c.cellOf {
		c.cellOf[i] = noSlot
		c.posIn[i] = noSlot
	}
	for ci, mem := range c.members {
		for pi, s := range mem {
			c.cellOf[s] = int32(ci)
			c.posIn[s] = int32(pi)
		}
	}

	for kd := range c.cent {
		kind := features.Kind(kd)
		st := features.Stride(kind)
		cent := make([]float64, c.n*st)
		rad := make([]float64, c.n)
		for ci, mem := range c.members {
			row := cent[ci*st : (ci+1)*st]
			cnt := 0
			for _, s := range mem {
				if !ar.hasKind(kind, s) {
					continue
				}
				v := ar.row(kind, s)
				for i := range row {
					row[i] += v[i]
				}
				cnt++
			}
			if cnt == 0 {
				rad[ci] = math.Inf(1)
				continue
			}
			inv := 1 / float64(cnt)
			for i := range row {
				row[i] *= inv
			}
			r := 0.0
			for _, s := range mem {
				if !ar.hasKind(kind, s) {
					continue
				}
				if d := features.PairDistance(kind, ar.row(kind, s), row); d > r {
					r = d
				}
			}
			rad[ci] = r
		}
		c.cent[kd] = cent
		c.rad[kd] = rad
	}
	return evals
}

// nearestCentroidReference scores v against the first k packed centroids
// one pair at a time, ties to the lowest index.
func nearestCentroidReference(v, cents []float64, k int, evals *int64) int {
	stride := features.Stride(cellRouteKind)
	best, bestD := 0, math.Inf(1)
	for ci := 0; ci < k; ci++ {
		*evals++
		if d := features.PairDistance(cellRouteKind, v, cents[ci*stride:(ci+1)*stride:(ci+1)*stride]); d < bestD {
			best, bestD = ci, d
		}
	}
	return best
}

// fitRouteCentroidsReference is the scalar coarse k-means: farthest-point
// seeding from the lowest-ID row, then cellLloydIters full Lloyd
// iterations.
func fitRouteCentroidsReference(ar *shardArena, sample []int32, k int, evals *int64) []float64 {
	stride := features.Stride(cellRouteKind)
	vec := func(s int32) []float64 { return ar.row(cellRouteKind, s) }

	seeds := make([]int32, 1, k)
	seeds[0] = sample[0]
	minD := make([]float64, len(sample))
	for i, s := range sample {
		*evals++
		minD[i] = features.PairDistance(cellRouteKind, vec(s), vec(seeds[0]))
	}
	for len(seeds) < k {
		best, bestD := -1, 0.0
		for i, d := range minD {
			if d > bestD {
				bestD = d
				best = i
			}
		}
		if best < 0 {
			break
		}
		ns := sample[best]
		seeds = append(seeds, ns)
		for i, s := range sample {
			*evals++
			if d := features.PairDistance(cellRouteKind, vec(s), vec(ns)); d < minD[i] {
				minD[i] = d
			}
		}
	}
	k = len(seeds)

	cents := make([]float64, k*stride)
	for ci, s := range seeds {
		copy(cents[ci*stride:(ci+1)*stride], vec(s))
	}
	sums := make([]float64, k*stride)
	counts := make([]int, k)
	for it := 0; it < cellLloydIters; it++ {
		clear(sums)
		clear(counts)
		for _, s := range sample {
			v := vec(s)
			best := nearestCentroidReference(v, cents, k, evals)
			row := sums[best*stride : (best+1)*stride]
			for j, x := range v {
				row[j] += x
			}
			counts[best]++
		}
		for ci := 0; ci < k; ci++ {
			if counts[ci] == 0 {
				continue
			}
			inv := 1 / float64(counts[ci])
			row := cents[ci*stride : (ci+1)*stride]
			srow := sums[ci*stride : (ci+1)*stride]
			for j := range row {
				row[j] = srow[j] * inv
			}
		}
	}
	return cents
}

// clusterFrames returns the first n frames of a cluster corpus.
func clusterFrames(n int, seed int64) []SyntheticFrame {
	frames := make([]SyntheticFrame, 0, n)
	synthvid.StreamClusterCorpus(synthvid.ClusterCorpusConfig{Frames: n, Seed: seed}, func(f *synthvid.DescriptorFrame) error {
		frames = append(frames, SyntheticFrame{ID: f.ID, VideoID: f.VideoID, Bucket: f.Bucket, Set: f.Set})
		return nil
	})
	return frames
}

// latticeFrames replaces the naive signatures of cluster frames with
// points of a coarse lattice in the first dims coordinates (the others
// zero), drawn from a few values: many rows duplicate one another, many
// sit at the same distance from two centroids, and means of lattice
// points land on it again, so the routing distances tie exactly.
func latticeFrames(n, dims int, seed int64) []SyntheticFrame {
	rng := rand.New(rand.NewSource(seed))
	frames := clusterFrames(n, seed)
	for i := range frames {
		set := *frames[i].Set
		sig := &features.NaiveSignature{}
		for d := 0; d < dims; d++ {
			sig.Sig[d/3][d%3] = uint8(4 * rng.Intn(5))
		}
		set.Naive = sig
		frames[i].Set = &set
	}
	return frames
}

// dropKinds removes the naive signature from every naiveEvery-th frame and
// the histogram from every histEvery-th (0 keeps the kind everywhere).
func dropKinds(frames []SyntheticFrame, naiveEvery, histEvery int) []SyntheticFrame {
	for i := range frames {
		set := *frames[i].Set
		if naiveEvery > 0 && i%naiveEvery == 0 {
			set.Naive = nil
		}
		if histEvery > 0 && i%histEvery == 0 {
			set.Histogram = nil
		}
		frames[i].Set = &set
	}
	return frames
}

// requireSameCells compares every index field of two cell indexes bit
// for bit.
func requireSameCells(t *testing.T, label string, got, want *shardCells) {
	t.Helper()
	if got.built != want.built || got.n != want.n {
		t.Fatalf("%s: built=%v n=%d, reference built=%v n=%d", label, got.built, got.n, want.built, want.n)
	}
	if !slices.EqualFunc(got.members, want.members, slices.Equal[[]int32]) {
		t.Fatalf("%s: members differ from the reference", label)
	}
	if !slices.Equal(got.cellOf, want.cellOf) || !slices.Equal(got.posIn, want.posIn) {
		t.Fatalf("%s: slot tables differ from the reference", label)
	}
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for k := range got.cent {
		if !slices.EqualFunc(got.cent[k], want.cent[k], bits) {
			t.Fatalf("%s: kind %d centroids differ from the reference", label, k)
		}
		if !slices.EqualFunc(got.rad[k], want.rad[k], bits) {
			t.Fatalf("%s: kind %d radii differ from the reference", label, k)
		}
	}
}

// TestCellRebuildMatchesReference pins the batched, bound-skipping
// rebuild to the scalar reference: same members, slot tables, centroids
// and radii, bit for bit, on clustered shards on both sides of
// minShardRows and of cellFitSampleMax (where the fit samples every
// step-th row and the unsampled rows take full sweeps), on lattice shards
// full of duplicates and exact ties, on shards with rows lacking the
// routing kind or another kind, and on a churned arena with free slots.
// Each index is rebuilt twice, so scratch left by one rebuild cannot leak
// into the next.
func TestCellRebuildMatchesReference(t *testing.T) {
	forced, def := forcedCells(), defaultCells
	cases := []struct {
		name   string
		cfg    cellConfig
		frames []SyntheticFrame
		churn  bool
	}{
		{"cluster_300_forced", forced, clusterFrames(300, 3), false},
		{"cluster_511", def, clusterFrames(511, 5), false},
		{"cluster_512", def, clusterFrames(512, 5), false},
		{"cluster_513", def, clusterFrames(513, 5), false},
		{"cluster_2048", def, clusterFrames(2048, 7), false},
		{"cluster_2049", def, clusterFrames(2049, 7), false},
		{"cluster_5000", def, clusterFrames(5000, 9), false},
		{"lattice_1d_forced", forced, latticeFrames(200, 1, 11), false},
		{"lattice_2d_forced", forced, latticeFrames(400, 2, 13), false},
		{"lattice_3d_700", def, latticeFrames(700, 3, 17), false},
		{"lattice_2d_2500", def, latticeFrames(2500, 2, 19), false},
		{"coincident_rows", forced, latticeFrames(90, 0, 23), false},
		{"missing_kinds_forced", forced, dropKinds(clusterFrames(300, 29), 5, 3), false},
		{"missing_kinds_2100", def, dropKinds(clusterFrames(2100, 31), 7, 4), false},
		{"no_routing_kind", forced, dropKinds(clusterFrames(40, 37), 1, 0), false},
		{"churned_lattice", forced, latticeFrames(500, 2, 41), true},
		{"churned_cluster_missing", def, dropKinds(clusterFrames(1500, 43), 6, 0), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ar := newShardArena()
			ents := make([]*frameEntry, len(tc.frames))
			for i := range tc.frames {
				f := &tc.frames[i]
				ents[i] = &frameEntry{id: f.ID, videoID: f.VideoID, bucket: f.Bucket}
				ar.insert(ents[i], f.Set)
			}
			if tc.churn {
				for i := 0; i < len(ents); i += 4 {
					ar.remove(ents[i])
				}
			}
			want := newShardCells(tc.cfg)
			rebuildReference(want, ar)
			got := newShardCells(tc.cfg)
			for pass := 1; pass <= 2; pass++ {
				got.rebuild(ar)
				requireSameCells(t, fmt.Sprintf("rebuild %d", pass), got, want)
			}
		})
	}

	// The bound step on a near tie. Row v sits at 0.1 from centroid 1 (its
	// previous centroid) and from centroid 0, which moved to 0.1 from 1.1.
	// In floating point 1.1 - (1.1 - 0.1) is 0.10000000000000009, so a
	// bound without slack would clear the tie and skip centroid 0; with
	// the slack it is scored, ties centroid 1, and wins on the lower index.
	t.Run("bound_near_tie", func(t *testing.T) {
		stride := features.Stride(cellRouteKind)
		at := func(xs ...float64) []float64 {
			out := make([]float64, len(xs)*stride)
			for i, x := range xs {
				out[i*stride] = x
			}
			return out
		}
		v, old, cents := at(0), at(1.1, -0.1), at(0.1, -0.1)
		c := newShardCells(forced)
		lb := make([]float64, 2)
		for ci := range lb {
			d := features.PairDistance(cellRouteKind, v, old[ci*stride:(ci+1)*stride])
			move := features.PairDistance(cellRouteKind, old[ci*stride:(ci+1)*stride], cents[ci*stride:(ci+1)*stride])
			lb[ci] = lowerBound(d) - move*(1+cellBoundSlack)
		}
		var evals int64
		want := int32(nearestCentroidReference(v, cents, 2, &evals))
		if got := c.nearestBounded(v, cents, 1, lb); got != want {
			t.Fatalf("bounded step chose centroid %d, reference %d", got, want)
		}
	})
}

// BenchmarkCellRebuild times one full cell rebuild of a default-config
// shard holding every eighth row of a cluster corpus, the rows one of
// eight search shards receives: 5 000 rows is a shard of the 40 000-row
// search_scale corpus, 20 000 rows a shard of a 160 000-row one. The
// reference sub-benchmark runs the scalar rebuild on the same shard.
// evals/op counts routing-distance evaluations (seeding, Lloyd, final
// assignment and centroid moves); it is a pure function of the shard.
func BenchmarkCellRebuild(b *testing.B) {
	for _, rows := range []int{5000, 20000} {
		corpus := synthvid.NewClusterCorpus(synthvid.ClusterCorpusConfig{Frames: 8 * rows, Seed: 1})
		ar := newShardArena()
		for i := 1; i <= rows; i++ {
			ar.insert(&frameEntry{id: int64(8 * i)}, corpus.Set(int64(8*i)))
		}
		cfg := defaultCells
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			c := newShardCells(cfg)
			c.rebuild(ar) // grow the scratch outside the timed loop
			before := c.routeEvals
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.rebuild(ar)
			}
			b.ReportMetric(float64(c.routeEvals-before)/float64(b.N), "evals/op")
		})
		b.Run(fmt.Sprintf("rows=%d/reference", rows), func(b *testing.B) {
			var evals int64
			for i := 0; i < b.N; i++ {
				evals += rebuildReference(newShardCells(cfg), ar)
			}
			b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
		})
	}
}
