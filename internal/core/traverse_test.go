package core

import (
	"fmt"
	"testing"

	"cbvr/internal/features"
	"cbvr/internal/synthvid"
)

// tieState builds a two-kind traversal at K = 1 in which row A (ID 5) is
// released in both kinds, at ranks 1 and 2, and row B (ID 3) only in the
// second kind, at rank 1, with the first kind one row deep. B's bound is
// then A's exact score, bit for bit, and B would win the tie on ID if its
// first-kind rank turns out to be 2.
func tieState() *traversal {
	t := &traversal{k: 1, n: 100, full: 3}
	t.kinds = []travKind{
		{bound: []float64{1}, cells: []int32{0}},
		{bound: []float64{1}, cells: []int32{0}},
	}
	t.kinds[0].depth, t.kinds[0].term = 1, 1/(rrfC+2)
	t.kinds[1].depth, t.kinds[1].term = 2, 1/(rrfC+3)
	a := travRow{id: 5, mask: 3, inTop: true, w: 1/(rrfC+1) + 1/(rrfC+2), rank: [7]int32{1, 2}}
	b := travRow{id: 3, mask: 2, w: 1 / (rrfC + 1), rank: [7]int32{0, 1}}
	t.rows = []travRow{a, b}
	t.top = []int32{0}
	return t
}

// TestTraversalWaitsOnTies pins the strict stop: a row whose best
// reachable score equals the K-th score exactly may still tie it and win
// on ID, so the traversal must deepen the kind that row is missing rather
// than stop.
func TestTraversalWaitsOnTies(t *testing.T) {
	tr := tieState()
	if got := tr.bound(&tr.rows[1]); got != tr.rows[0].w {
		t.Fatalf("planted bound %v, want exactly the K-th score %v", got, tr.rows[0].w)
	}
	ki, done := tr.next()
	if done || ki != 0 {
		t.Fatalf("next() = (%d, %v) with a row tied at the K-th score: want to deepen kind 0", ki, done)
	}
	if _, ok := tr.verify(); ok {
		t.Fatal("verify certified a top K that a tied row could still enter")
	}
}

// TestTraversalEvalCounts pins the evaluations the threshold traversal
// pays: RowEvals and CellEvals summed over 20 cluster queries for K in
// {1, 10, 100} and three kind sets, on three cluster corpora at the
// default cell options. The counts are a function of the query and the
// cells alone, so a change to the traversal's schedule or stop rule that
// moves any of them shows here as a diff of the table.
func TestTraversalEvalCounts(t *testing.T) {
	type count struct{ rows, cells int64 }
	kindSets := []struct {
		name  string
		kinds []features.Kind
	}{
		{"all", nil},
		{"gabor", []features.Kind{features.KindGabor}},
		{"naive+histogram", []features.Kind{features.KindNaive, features.KindHistogram}},
	}
	corpora := []struct {
		cfg    synthvid.ClusterCorpusConfig
		shards int
		want   [3][3]count // [kind set][K 1, 10, 100]
	}{
		{synthvid.ClusterCorpusConfig{Frames: 8000, Clusters: 16, Seed: 11}, 2, [3][3]count{
			{{199308, 7560}, {220961, 7560}, {257176, 7560}},
			{{24067, 1080}, {26494, 1080}, {33350, 1080}},
			{{39672, 2160}, {48386, 2160}, {62186, 2160}},
		}},
		{synthvid.ClusterCorpusConfig{Frames: 6000, Clusters: 6, Seed: 11}, 3, [3][3]count{
			{{147152, 6160}, {147152, 6160}, {154000, 6160}},
			{{20000, 880}, {20000, 880}, {20000, 880}},
			{{40000, 1760}, {40000, 1760}, {40000, 1760}},
		}},
		{synthvid.ClusterCorpusConfig{Frames: 3000, Seed: 11}, 1, [3][3]count{
			{{118315, 4200}, {134077, 4200}, {145762, 4200}},
			{{16774, 600}, {21024, 600}, {21953, 600}},
			{{25803, 1200}, {32149, 1200}, {40342, 1200}},
		}},
	}
	for _, c := range corpora {
		label := fmt.Sprintf("%d rows/%d shards", c.cfg.Frames, c.shards)
		eng := openCellEngine(t, Options{SearchShards: c.shards})
		loadClusterFrames(t, eng, c.cfg)
		queries := synthvid.ClusterQueries(c.cfg, 20)
		for si, ks := range kindSets {
			for ki, k := range []int{1, 10, 100} {
				var got count
				for _, q := range queries {
					_, st, err := eng.SearchWithSetStats(q.Set, q.Bucket, SearchOptions{K: k, Kinds: ks.kinds})
					if err != nil {
						t.Fatal(err)
					}
					if st.Stop == "" {
						t.Fatalf("%s kinds=%s k=%d: the search did not take the traversal", label, ks.name, k)
					}
					got.rows += st.RowEvals
					got.cells += st.CellEvals
				}
				if want := c.want[si][ki]; got != want {
					t.Errorf("%s kinds=%s k=%d: %d row + %d cell evaluations, want %d + %d", label, ks.name, k, got.rows, got.cells, want.rows, want.cells)
				}
			}
		}
	}
}
