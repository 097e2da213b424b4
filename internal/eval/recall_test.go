package eval

import (
	"os"
	"path/filepath"
	"testing"

	"cbvr/internal/core"
	"cbvr/internal/features"
	"cbvr/internal/synthvid"
)

// recallFloor / ratioFloor are the ISSUE acceptance thresholds: pruned
// search must keep recall@K >= 0.95 against the exact arm while paying
// >= 10x fewer distance evaluations at the 100k scale point (the 10k
// tier asserts a softer ratio floor because fixed per-shard minimum
// probes weigh more at small n).
const (
	recallFloor = 0.95
	ratioFloor  = 10.0
)

func buildCorpusEngine(t testing.TB, cfg synthvid.ClusterCorpusConfig, opts core.Options) *core.Engine {
	t.Helper()
	eng, err := core.Open(filepath.Join(t.TempDir(), "eval.db"), opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { eng.Close() })
	if err := LoadClusterCorpus(eng, cfg); err != nil {
		t.Fatalf("load corpus: %v", err)
	}
	return eng
}

// TestRecallPruned10k is the default-config recall gate: 10k planted
// corpus, default fused search, table-driven thresholds per search
// configuration. Fails the build if the pruner's recall drops below the
// ISSUE floor at default configuration.
func TestRecallPruned10k(t *testing.T) {
	cfg := synthvid.ClusterCorpusConfig{Frames: 10000, Seed: 7}
	eng := buildCorpusEngine(t, cfg, core.Options{SearchShards: 4})

	cases := []struct {
		name      string
		search    core.SearchOptions
		minRecall float64
		minRatio  float64
	}{
		// Default fused search: all seven kinds under RRF. This is the
		// configuration the recall gate protects. The eval-ratio floor is
		// softer than the 100k headline because MinProbeRows dominates the
		// budget at this scale — the ratio grows with corpus size (that IS
		// the sub-linear claim; see the 100k gate for the 10x floor).
		{name: "fused_rrf_default", search: core.SearchOptions{}, minRecall: recallFloor, minRatio: 2.5},
		// MinMax fusion renormalises each kind over the candidate set, so
		// probing shifts per-kind min/max spans and reweights kinds — a
		// structural drift more probing does not converge away. Held to a
		// documented softer floor; the default fusion (RRF) carries the
		// 0.95 gate.
		{name: "fused_minmax", search: core.SearchOptions{Fusion: core.FusionMinMax}, minRecall: 0.85, minRatio: 2.5},
		// Single-kind searches ride the exact bound-ordered path: recall
		// must be 1 by construction.
		{name: "single_histogram", search: core.SearchOptions{Kinds: []features.Kind{features.KindHistogram}}, minRecall: 1, minRatio: 1},
		{name: "single_naive", search: core.SearchOptions{Kinds: []features.Kind{features.KindNaive}}, minRecall: 1, minRatio: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := EvaluateRecall(eng, cfg, RecallOptions{Queries: 40, K: 10, Search: tc.search})
			if err != nil {
				t.Fatalf("evaluate: %v", err)
			}
			t.Logf("mean recall %.4f min %.4f target-hit %.2f eval ratio %.2fx (paid %d / exact %d) pruned=%d exact=%d",
				res.MeanRecall, res.MinRecall, res.TargetHitRate, res.EvalRatio,
				res.PaidEvals, res.ExactEvals, res.PrunedShards, res.ExactShards)
			if res.MeanRecall < tc.minRecall {
				t.Errorf("mean recall %.4f below floor %.2f", res.MeanRecall, tc.minRecall)
			}
			if res.EvalRatio < tc.minRatio {
				t.Errorf("eval ratio %.2fx below floor %.2fx", res.EvalRatio, tc.minRatio)
			}
			if res.PrunedShards == 0 {
				t.Errorf("no shard took the pruned path; pruning never engaged")
			}
		})
	}
}

// TestRecallMaxBrownout10k pins the brownout floor on the 10k planted
// corpus: at level 1 the fused probe budget collapses to MinProbeRows,
// which must still clear the recall floor — brownout trades tail quality
// for survival, it must never make search useless. The gate's default
// config leaves brownout no room (the per-shard fraction budget, 0.07 ×
// 2500 = 175, already sits below the 400-row floor), so this engine
// raises ProbeFraction to 0.4: a 1000-row level-0 budget per shard that
// level 1 shrinks to exactly the floor — the same effective budget the
// default gate proves recalls ≥ 0.95.
func TestRecallMaxBrownout10k(t *testing.T) {
	cfg := synthvid.ClusterCorpusConfig{Frames: 10000, Seed: 7}
	eng := buildCorpusEngine(t, cfg, core.Options{SearchShards: 4, Cells: core.CellOptions{ProbeFraction: 0.4}})

	base, err := EvaluateRecall(eng, cfg, RecallOptions{Queries: 40, K: 10})
	if err != nil {
		t.Fatalf("level-0 evaluate: %v", err)
	}
	browned, err := EvaluateRecall(eng, cfg, RecallOptions{Queries: 40, K: 10, Search: core.SearchOptions{Brownout: 1}})
	if err != nil {
		t.Fatalf("browned evaluate: %v", err)
	}
	t.Logf("level 0: recall %.4f paid %d; level 1: recall %.4f paid %d",
		base.MeanRecall, base.PaidEvals, browned.MeanRecall, browned.PaidEvals)
	if browned.PaidEvals >= base.PaidEvals {
		t.Errorf("max brownout paid %d evals, level 0 paid %d — budget did not shrink", browned.PaidEvals, base.PaidEvals)
	}
	if browned.PrunedShards == 0 {
		t.Error("browned search never took the pruned path")
	}
	if browned.MeanRecall < 0.95 {
		t.Errorf("mean recall %.4f at max brownout below the MinProbeRows floor 0.95", browned.MeanRecall)
	}
}

// TestRecallPruned100k is the ISSUE headline scale point: 100k corpus,
// recall@10 >= 0.95 with >= 10x fewer distance evaluations. ~1.1 GB of
// arena columns and minutes of generation, so it only runs when
// CBVR_SCALE_TEST=1.
func TestRecallPruned100k(t *testing.T) {
	if os.Getenv("CBVR_SCALE_TEST") != "1" {
		t.Skip("set CBVR_SCALE_TEST=1 to run the 100k scale gate")
	}
	cfg := synthvid.ClusterCorpusConfig{Frames: 100000, Seed: 7}
	eng := buildCorpusEngine(t, cfg, core.Options{SearchShards: 8})

	res, err := EvaluateRecall(eng, cfg, RecallOptions{Queries: 50, K: 10})
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	t.Logf("100k: mean recall %.4f min %.4f target-hit %.2f eval ratio %.2fx",
		res.MeanRecall, res.MinRecall, res.TargetHitRate, res.EvalRatio)
	if res.MeanRecall < recallFloor {
		t.Errorf("mean recall %.4f below floor %.2f", res.MeanRecall, recallFloor)
	}
	if res.EvalRatio < ratioFloor {
		t.Errorf("eval ratio %.2fx below headline floor %.0fx", res.EvalRatio, ratioFloor)
	}
}

// TestClusterCorpusDeterministic pins that corpus generation is a pure
// function of (config, index): two streams with the same seed agree
// frame-for-frame, and queries regenerate identically.
func TestClusterCorpusDeterministic(t *testing.T) {
	cfg := synthvid.ClusterCorpusConfig{Frames: 300, Seed: 42}
	collect := func() []*synthvid.DescriptorFrame {
		var out []*synthvid.DescriptorFrame
		if err := synthvid.StreamClusterCorpus(cfg, func(f *synthvid.DescriptorFrame) error {
			out = append(out, f)
			return nil
		}); err != nil {
			t.Fatalf("stream: %v", err)
		}
		return out
	}
	a, b := collect(), collect()
	if len(a) != cfg.Frames || len(b) != cfg.Frames {
		t.Fatalf("got %d/%d frames, want %d", len(a), len(b), cfg.Frames)
	}
	dups := 0
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Cluster != b[i].Cluster || a[i].NearDupOf != b[i].NearDupOf {
			t.Fatalf("frame %d metadata diverged between identical streams", i)
		}
		da, db := a[i].Set.Get(features.KindNaive), b[i].Set.Get(features.KindNaive)
		if d, err := da.DistanceTo(db); err != nil || d != 0 {
			t.Fatalf("frame %d naive descriptor diverged (d=%v err=%v)", i, d, err)
		}
		if a[i].NearDupOf != 0 {
			dups++
			if got := a[i].NearDupOf; got != int64(a[i].Cluster)+1 {
				t.Fatalf("frame %d: near-dup ground truth %d, want exemplar %d", i, got, a[i].Cluster+1)
			}
		}
	}
	if dups == 0 {
		t.Fatal("corpus planted no near-duplicates")
	}
	qa, qb := synthvid.ClusterQueries(cfg, 5), synthvid.ClusterQueries(cfg, 5)
	for i := range qa {
		d, err := qa[i].Set.Get(features.KindGabor).DistanceTo(qb[i].Set.Get(features.KindGabor))
		if err != nil || d != 0 {
			t.Fatalf("query %d diverged between identical generations (d=%v err=%v)", i, d, err)
		}
	}
}
