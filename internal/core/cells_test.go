package core

import (
	"context"
	"fmt"
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
// budgets force real probing, and low RebuildFraction exercises rebuilds
// under modest churn.
func forcedCells() CellOptions {
	return CellOptions{MinShardRows: 1, TargetCellSize: 8, MinProbeRows: 16, ProbeFraction: 0.07, RebuildFraction: 0.25}
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
// and requires the bound-ordered sweep to reproduce the reference ranking
// bit for bit across all seven kinds.
func TestCellSingleKindBitIdentity(t *testing.T) {
	eng := openCellEngine(t, Options{SearchShards: 3, Cells: forcedCells()})
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

// TestCellFusedProbeBudget pins the fused probe's work contract: it pays
// at most the budget per shard (plus centroid bounds), never returns an
// error, and its candidates are a strict subset of the exact arm's work.
func TestCellFusedProbeBudget(t *testing.T) {
	eng := openCellEngine(t, Options{SearchShards: 3, Cells: forcedCells()})
	cfg := synthvid.ClusterCorpusConfig{Frames: 900, Clusters: 12, Seed: 13}
	loadClusterFrames(t, eng, cfg)

	q := synthvid.ClusterQueries(cfg, 1)[0]
	got, stats, err := eng.SearchWithSetStats(q.Set, q.Bucket, SearchOptions{K: 10})
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
	// max(MinProbeRows, ProbeFraction*n0, K) rows (the gather truncates
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
	_, ex, err := eng.SearchWithSetStats(q.Set, q.Bucket, SearchOptions{K: 10, NoCellPruning: true})
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

// TestCellExactFallbacks pins every condition that must route a search to
// the exact sweep: corpora under the shard floor, K covering the shard,
// per-call and per-engine opt-outs, and queries over kinds the corpus
// largely lacks (degenerate feature mixes stay bit-identical).
func TestCellExactFallbacks(t *testing.T) {
	t.Run("below_min_shard_rows", func(t *testing.T) {
		// Default options: MinShardRows=512 with 90 rows over 3 shards —
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
		eng := openCellEngine(t, Options{SearchShards: 2, Cells: forcedCells()})
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
		eng := openCellEngine(t, Options{SearchShards: 2, Cells: forcedCells()})
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
		eng := openCellEngine(t, Options{SearchShards: 2, Cells: forcedCells()})
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
// every mutation the forced-pruned single-kind path must still match the
// reference bit for bit while concurrent searchers race the readers.
// Run under -race this pins the index's locking contract.
func TestCellChurnBitIdentity(t *testing.T) {
	eng := openCellEngine(t, Options{SearchShards: 3, Cells: forcedCells()})
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

		// A synthetic top-up big enough to trip RebuildFraction rebuilds.
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
		t.Fatalf("churn triggered only %d rebuilds over %d shards; RebuildFraction never tripped", st.Rebuilds, st.Shards)
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
	c := newShardCells(forcedCells().withDefaults())
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
	cD := newShardCells(forcedCells().withDefaults())
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
		cB := newShardCells(forcedCells().withDefaults())
		cB.rebuild(arB)
		if got := cellSignature(t, arB, cB); got != want {
			t.Fatalf("fuzzed order diverged (n=%d perm=%x):\n--- want\n%s--- got\n%s", n, perm, want, got)
		}
	})
}
