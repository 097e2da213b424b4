// Scaling benchmarks for the coarse-cell candidate pruner: pruned vs
// exact fused search over planted clustered corpora at 1k / 10k (and,
// behind CBVR_SCALE_TEST=1, 100k) key frames, reporting ns/op next to
// the evaluation ratio per corpus size. The recall side of the claim
// lives in internal/eval (TestRecallPruned10k / TestRecallPruned100k);
// these benchmarks record the work side. The repository's benchmark of
// record is bench/ (see bench/README.md).
package cbvr_test

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"cbvr/internal/core"
	"cbvr/internal/eval"
	"cbvr/internal/synthvid"
)

// scaleBenchCorpus is one populated engine plus its regenerated query
// set at a given corpus size. Engines are cached per size for the
// process lifetime: corpus generation dominates setup, and every
// benchmark at a size shares the identical cache state.
type scaleBenchCorpus struct {
	eng     *core.Engine
	cfg     synthvid.ClusterCorpusConfig
	queries []*synthvid.DescriptorFrame
}

var (
	scaleMu      sync.Mutex
	scaleCorpora = map[int]*scaleBenchCorpus{}
)

func scaleCorpus(b *testing.B, frames int) *scaleBenchCorpus {
	b.Helper()
	scaleMu.Lock()
	defer scaleMu.Unlock()
	if c, ok := scaleCorpora[frames]; ok {
		return c
	}
	dir, err := os.MkdirTemp("", "cbvr-scale-*")
	if err != nil {
		b.Fatal(err)
	}
	shards := 4
	if frames >= 100000 {
		shards = 8
	}
	eng, err := core.Open(filepath.Join(dir, "scale.db"), core.Options{SearchShards: shards})
	if err != nil {
		b.Fatal(err)
	}
	cfg := synthvid.ClusterCorpusConfig{Frames: frames, Seed: 7}
	if err := eval.LoadClusterCorpus(eng, cfg); err != nil {
		b.Fatal(err)
	}
	c := &scaleBenchCorpus{eng: eng, cfg: cfg, queries: synthvid.ClusterQueries(cfg, 16)}
	scaleCorpora[frames] = c
	return c
}

// benchSearchScale times one fused top-10 retrieval per iteration at the
// given corpus size, pruned (the cell index engaged) or exact (the same
// pipeline with NoCellPruning). It reports the corpus size and, from the
// last iteration's work counters, the evaluation ratio the pruner
// achieved — exact row kernels over paid row kernels plus centroid
// bounds — so the ≥10×-fewer-evals claim is a number next to the latency
// it bought.
func benchSearchScale(b *testing.B, frames int, pruned bool) {
	c := scaleCorpus(b, frames)
	opt := core.SearchOptions{K: 10, NoCellPruning: !pruned}
	var last core.SearchStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := c.queries[i%len(c.queries)]
		_, stats, err := c.eng.SearchWithSetStats(q.Set, q.Bucket, opt)
		if err != nil {
			b.Fatal(err)
		}
		last = stats
	}
	b.StopTimer()
	// After the loop: ResetTimer deletes user metrics, so report here.
	b.ReportMetric(float64(frames), "frames")
	b.ReportMetric(last.EvalRatio(), "evalratio")
	b.ReportMetric(float64(last.TotalEvals()), "evals")
}

func BenchmarkSearchScale_Pruned1k(b *testing.B)  { benchSearchScale(b, 1000, true) }
func BenchmarkSearchScale_Exact1k(b *testing.B)   { benchSearchScale(b, 1000, false) }
func BenchmarkSearchScale_Pruned10k(b *testing.B) { benchSearchScale(b, 10000, true) }
func BenchmarkSearchScale_Exact10k(b *testing.B)  { benchSearchScale(b, 10000, false) }

// The 100k point costs minutes of corpus generation and ~1 GB of arena
// columns; like TestRecallPruned100k it only runs when CBVR_SCALE_TEST=1.
func BenchmarkSearchScale_Pruned100k(b *testing.B) {
	if os.Getenv("CBVR_SCALE_TEST") != "1" {
		b.Skip("set CBVR_SCALE_TEST=1 to run the 100k scale point")
	}
	benchSearchScale(b, 100000, true)
}

func BenchmarkSearchScale_Exact100k(b *testing.B) {
	if os.Getenv("CBVR_SCALE_TEST") != "1" {
		b.Skip("set CBVR_SCALE_TEST=1 to run the 100k scale point")
	}
	benchSearchScale(b, 100000, false)
}
