package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"cbvr/internal/features"
	"cbvr/internal/synthvid"
)

// brownoutCorpus is sized so the min-max probe budget has real headroom
// above minProbeRows: 1000 frames over 2 shards with probeFraction 0.25
// gives a level-0 budget of 125 rows against a floor of 16.
var brownoutCfg = synthvid.ClusterCorpusConfig{Frames: 1000, Seed: 3}

func brownoutCells() cellConfig {
	return cellConfig{minShardRows: 1, targetCellSize: 8, minProbeRows: 16, probeFraction: 0.25, rebuildFraction: 0.25}
}

// TestBrownoutZeroIsInert pins the exactness contract: a search at level 0
// — including one after a browned search on the same engine — is
// bit-identical in results AND in work counters to one on an engine that
// never browned out. The browned search is min-max fused, the one search
// brownout shrinks; single-kind searches stay equal to the reference even
// at maximum brownout.
func TestBrownoutZeroIsInert(t *testing.T) {
	eng := openCellEngine(t, Options{SearchShards: 2, cells: brownoutCells()})
	loadClusterFrames(t, eng, brownoutCfg)
	q := synthvid.ClusterQueries(brownoutCfg, 1)[0]
	opt := SearchOptions{K: 10, NoPruning: true, Fusion: FusionMinMax}

	base, baseStats, err := eng.SearchWithSetStats(q.Set, q.Bucket, opt)
	if err != nil {
		t.Fatal(err)
	}
	if baseStats.Brownout != 0 {
		t.Fatalf("fresh engine reports brownout %v", baseStats.Brownout)
	}

	hot := opt
	hot.Brownout = 0.8
	browned, brownedStats, err := eng.SearchWithSetStats(q.Set, q.Bucket, hot)
	if err != nil {
		t.Fatal(err)
	}
	if brownedStats.Brownout != 0.8 {
		t.Fatalf("browned search recorded level %v, want 0.8", brownedStats.Brownout)
	}
	if brownedStats.RowEvals >= baseStats.RowEvals {
		t.Fatalf("brownout 0.8 did not shrink work: %d >= %d row evals", brownedStats.RowEvals, baseStats.RowEvals)
	}
	_ = browned

	// Load clears: the next search at level 0 must run the exact
	// pre-brownout behaviour, not an approximation of it.
	after, afterStats, err := eng.SearchWithSetStats(q.Set, q.Bucket, opt)
	if err != nil {
		t.Fatal(err)
	}
	if afterStats.RowEvals != baseStats.RowEvals || afterStats.CellEvals != baseStats.CellEvals {
		t.Fatalf("work counters differ after brownout cleared: %+v vs %+v", afterStats, baseStats)
	}
	if len(after) != len(base) {
		t.Fatalf("result count differs after brownout cleared: %d vs %d", len(after), len(base))
	}
	for i := range after {
		if after[i] != base[i] {
			t.Fatalf("result %d differs after brownout cleared: %+v vs %+v", i, after[i], base[i])
		}
	}

	// Single-kind searches ride the exact threshold traversal and must be
	// bit-identical to the reference even at maximum brownout.
	for _, kind := range []features.Kind{features.AllKinds()[0], features.AllKinds()[3]} {
		sopt := SearchOptions{K: 7, Kinds: []features.Kind{kind}, NoPruning: true, Brownout: 1}
		want, err := eng.SearchWithSetReference(q.Set, q.Bucket, sopt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.SearchWithSet(q.Set, q.Bucket, sopt)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("kind %v: %d results, want %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("kind %v result %d differs at max brownout: %+v vs %+v", kind, i, got[i], want[i])
			}
		}
	}
}

// TestBrownoutBudgetFloor pins the shrink target: at level 1 the min-max
// probe budget IS minProbeRows. A max-browned min-max search does exactly
// the same work, and returns exactly the same ranking, as one on an engine
// configured with a probe fraction so small that minProbeRows is its whole
// budget.
func TestBrownoutBudgetFloor(t *testing.T) {
	browned := openCellEngine(t, Options{SearchShards: 2, cells: brownoutCells()})
	loadClusterFrames(t, browned, brownoutCfg)

	floorCells := brownoutCells()
	floorCells.probeFraction = 1e-6 // budget = max(minProbeRows, ~0) = minProbeRows
	floor := openCellEngine(t, Options{SearchShards: 2, cells: floorCells})
	loadClusterFrames(t, floor, brownoutCfg)

	for qi, q := range synthvid.ClusterQueries(brownoutCfg, 3) {
		label := fmt.Sprintf("query %d", qi)
		got, gotStats, err := browned.SearchWithSetStats(q.Set, q.Bucket, SearchOptions{K: 10, NoPruning: true, Fusion: FusionMinMax, Brownout: 1})
		if err != nil {
			t.Fatal(err)
		}
		want, wantStats, err := floor.SearchWithSetStats(q.Set, q.Bucket, SearchOptions{K: 10, NoPruning: true, Fusion: FusionMinMax})
		if err != nil {
			t.Fatal(err)
		}
		if gotStats.TotalEvals() != wantStats.TotalEvals() {
			t.Fatalf("%s: max brownout paid %d evals, minProbeRows config paid %d — floors diverge",
				label, gotStats.TotalEvals(), wantStats.TotalEvals())
		}
		if gotStats.PrunedShards == 0 {
			t.Fatalf("%s: max-browned search did not take the pruned path", label)
		}
		requireBitIdentical(t, label, got, want)
	}
}

// TestBrownoutMonotoneShrink checks the min-max budget shrink is monotone
// in the level: more pressure never does more work.
func TestBrownoutMonotoneShrink(t *testing.T) {
	eng := openCellEngine(t, Options{SearchShards: 2, cells: brownoutCells()})
	loadClusterFrames(t, eng, brownoutCfg)
	q := synthvid.ClusterQueries(brownoutCfg, 1)[0]
	var prev int64 = math.MaxInt64
	for _, lvl := range []float64{0, 0.25, 0.5, 0.75, 1} {
		opt := SearchOptions{K: 10, NoPruning: true, Fusion: FusionMinMax, Brownout: lvl}
		_, stats, err := eng.SearchWithSetStats(q.Set, q.Bucket, opt)
		if err != nil {
			t.Fatal(err)
		}
		if stats.RowEvals > prev {
			t.Fatalf("level %v paid %d row evals, more than the previous level's %d", lvl, stats.RowEvals, prev)
		}
		prev = stats.RowEvals
	}
}

// TestBrownoutNeverCostsMore pins that brownout leaves the threshold
// traversal alone: for every query, K in {1, 10, 100} and both RRF over
// every kind and a single kind, a search at brownout 0.25, 0.5 or 1
// returns the level-0 ranking bit for bit and pays the same row and cell
// evaluations.
func TestBrownoutNeverCostsMore(t *testing.T) {
	eng := openCellEngine(t, Options{SearchShards: 2, cells: brownoutCells()})
	loadClusterFrames(t, eng, brownoutCfg)
	for qi, q := range synthvid.ClusterQueries(brownoutCfg, 20) {
		for _, k := range []int{1, 10, 100} {
			for _, kinds := range [][]features.Kind{nil, {features.KindGabor}} {
				opt := SearchOptions{K: k, Kinds: kinds}
				want, base, err := eng.SearchWithSetStats(q.Set, q.Bucket, opt)
				if err != nil {
					t.Fatal(err)
				}
				if base.Stop == "" {
					t.Fatalf("query %d K %d kinds %v: level 0 did not take the traversal", qi, k, kinds)
				}
				for _, lvl := range []float64{0.25, 0.5, 1} {
					opt.Brownout = lvl
					got, st, err := eng.SearchWithSetStats(q.Set, q.Bucket, opt)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("query %d K %d kinds %v level %v", qi, k, kinds, lvl)
					if st.RowEvals != base.RowEvals || st.CellEvals != base.CellEvals {
						t.Fatalf("%s: paid %d + %d evals, level 0 paid %d + %d",
							label, st.RowEvals, st.CellEvals, base.RowEvals, base.CellEvals)
					}
					requireBitIdentical(t, label, got, want)
				}
			}
		}
	}
}

// TestBrownoutRefusesFullRank checks K<=0 searches — frame rankings and
// video DTW sweeps — are refused with ErrOverloaded at or above the
// refusal level and served again below it.
func TestBrownoutRefusesFullRank(t *testing.T) {
	eng := openCellEngine(t, Options{SearchShards: 2, cells: brownoutCells()})
	frames := loadClusterFrames(t, eng, synthvid.ClusterCorpusConfig{Frames: 64, Seed: 5})
	q := synthvid.ClusterQueries(synthvid.ClusterCorpusConfig{Frames: 64, Seed: 5}, 1)[0]

	const refuse = BrownoutRefuseFullRank
	if _, err := eng.SearchWithSet(q.Set, q.Bucket, SearchOptions{Brownout: refuse}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("K=0 frame search at refusal level: %v, want ErrOverloaded", err)
	}
	qsets := []*features.Set{frames[0].Set}
	if _, err := eng.searchVideoSets(context.Background(), qsets, SearchOptions{Brownout: refuse}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("K=0 video search at refusal level: %v, want ErrOverloaded", err)
	}
	// Bounded searches still serve at the same level.
	if _, err := eng.SearchWithSet(q.Set, q.Bucket, SearchOptions{K: 5, Brownout: refuse}); err != nil {
		t.Fatalf("bounded search at refusal level: %v", err)
	}
	if _, err := eng.searchVideoSets(context.Background(), qsets, SearchOptions{K: 2, Brownout: refuse}); err != nil {
		t.Fatalf("bounded video search at refusal level: %v", err)
	}
	// Below the refusal level the full ranking is served again.
	if _, err := eng.SearchWithSet(q.Set, q.Bucket, SearchOptions{Brownout: refuse / 2}); err != nil {
		t.Fatalf("K=0 search below refusal level: %v", err)
	}
}

// TestBrownoutClamps pins the level sanitation: out-of-range and NaN
// levels must fail open (0) or saturate (1), never poison the budget math.
// The level a search ran at is the one it reports in SearchStats.
func TestBrownoutClamps(t *testing.T) {
	eng := openCellEngine(t, Options{SearchShards: 1})
	loadClusterFrames(t, eng, synthvid.ClusterCorpusConfig{Frames: 16, Seed: 5})
	q := synthvid.ClusterQueries(synthvid.ClusterCorpusConfig{Frames: 16, Seed: 5}, 1)[0]
	for _, tc := range []struct{ in, want float64 }{
		{-3, 0}, {0, 0}, {0.4, 0.4}, {2, 1}, {math.Inf(1), 1}, {math.NaN(), 0},
	} {
		_, stats, err := eng.SearchWithSetStats(q.Set, q.Bucket, SearchOptions{K: 3, Brownout: tc.in})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Brownout != tc.want {
			t.Fatalf("Brownout %v → level %v, want %v", tc.in, stats.Brownout, tc.want)
		}
	}
}

// TestBrownoutPerSearchUnderConcurrency runs searches at alternating
// levels on one engine at once: each must run at, and report, its own
// level — the engine holds no load state a concurrent search could move.
func TestBrownoutPerSearchUnderConcurrency(t *testing.T) {
	eng := openCellEngine(t, Options{SearchShards: 2, cells: brownoutCells()})
	loadClusterFrames(t, eng, brownoutCfg)
	q := synthvid.ClusterQueries(brownoutCfg, 1)[0]
	levels := []float64{0, 1, 0.25, 0.75}
	// Each level's work is deterministic; record it serially first.
	want := make([]int64, len(levels))
	for i, lvl := range levels {
		_, stats, err := eng.SearchWithSetStats(q.Set, q.Bucket, SearchOptions{K: 10, NoPruning: true, Fusion: FusionMinMax, Brownout: lvl})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = stats.RowEvals
	}
	if want[0] == want[1] {
		t.Fatalf("levels 0 and 1 paid the same %d row evals; the corpus gives brownout no room", want[0])
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8*len(levels))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				i := (g + r) % len(levels)
				_, stats, err := eng.SearchWithSetStats(q.Set, q.Bucket, SearchOptions{K: 10, NoPruning: true, Fusion: FusionMinMax, Brownout: levels[i]})
				switch {
				case err != nil:
					errs <- err
				case stats.Brownout != levels[i] || stats.RowEvals != want[i]:
					errs <- fmt.Errorf("search at level %v ran at %v paying %d row evals, want %d",
						levels[i], stats.Brownout, stats.RowEvals, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
