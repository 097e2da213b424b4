// Go micro-benchmarks of the arena scan and of the search classes' work.
// The repository's benchmark of
// record is bench/ (see bench/README.md); cmd/cbvr-bench prints the
// paper's artefacts and the design ablations. The ingest pipeline pair
// lives beside the reference ingest in internal/core.
//
// Run `go test -run '^$' -bench . -benchmem` at the repository root.
package cbvr_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"cbvr"
	"cbvr/internal/core"
	"cbvr/internal/eval"
	"cbvr/internal/features"
	"cbvr/internal/imaging"
	"cbvr/internal/synthvid"
)

// scanCorpus is the arena-scan fixture: every frame becomes a key frame
// (threshold ~0), yielding a ≥ 1000-key-frame cache, plus one query's
// descriptors. It is built once, only when BenchmarkScanArena runs.
type scanCorpus struct {
	sys    *cbvr.System
	qset   *features.Set
	frames int
}

var (
	scanOnce sync.Once
	scan     *scanCorpus
	scanErr  error
)

func sharedScanCorpus(b *testing.B) *scanCorpus {
	b.Helper()
	scanOnce.Do(func() {
		dir, err := os.MkdirTemp("", "cbvr-scan-*")
		if err != nil {
			scanErr = err
			return
		}
		// Near-zero threshold keeps every frame: 25 clips x 40 frames =
		// 1000 key frames, over 8 shards.
		sys, err := cbvr.Open(filepath.Join(dir, "scan.db"), cbvr.Options{
			KeyframeThreshold: 0.001,
			SearchShards:      8,
		})
		if err != nil {
			scanErr = err
			return
		}
		cats := []synthvid.Category{
			synthvid.Elearning, synthvid.Sports, synthvid.Cartoon,
			synthvid.Movie, synthvid.News,
		}
		for i := 0; i < 25; i++ {
			v := synthvid.Generate(cats[i%len(cats)], synthvid.Config{
				Width: 96, Height: 72, Frames: 40, Shots: 6, Seed: int64(1000 + i),
			})
			if _, err := sys.IngestFramesCtx(context.Background(), fmt.Sprintf("%s_%02d", v.Name, i), v.Frames, v.FPS); err != nil {
				scanErr = err
				return
			}
		}
		n, err := sys.CacheSize()
		if err != nil {
			scanErr = err
			return
		}
		q := synthvid.Generate(cats[0], synthvid.Config{
			Width: 96, Height: 72, Frames: 2, Shots: 1, Seed: 2000,
		})
		qsets := sys.ExtractQuerySets([]*imaging.Image{q.Frames[0]})
		scan = &scanCorpus{sys: sys, qset: qsets[0], frames: n}
	})
	if scanErr != nil {
		b.Fatal(scanErr)
	}
	if scan.frames < 1000 {
		b.Fatalf("scan corpus has %d key frames, want >= 1000", scan.frames)
	}
	return scan
}

// BenchmarkScanArena isolates the scan phase of the columnar pipeline:
// the batched kernel sweep of all seven descriptor columns over every
// live arena row of the 1k-key-frame corpus, into a preallocated buffer.
// Run with -benchmem: the sweep itself performs zero allocations — the
// per-query work is exactly len(kinds) kernel calls per shard over
// contiguous memory.
func BenchmarkScanArena(b *testing.B) {
	c := sharedScanCorpus(b)
	eng := c.sys
	pq := eng.PackQuery(c.qset, nil)
	dist := make([]float64, int(features.NumKinds)*c.frames)
	b.ReportMetric(float64(c.frames), "keyframes")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ScanArenaInto(pq, dist); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchClasses runs the three search classes of the
// search_scale workload on its shape: 40 000 cluster-corpus rows (seed
// 1) over 8 shards, the §4.2 bucket filter on, 60 cluster queries, K =
// 10. Each class runs benchSearch, whose evaluation counts repeat exactly
// for a given corpus and cell layout. The single-kind class rotates over
// the seven kinds.
func BenchmarkSearchClasses(b *testing.B) {
	cfg := synthvid.ClusterCorpusConfig{Frames: 40000, Seed: 1}
	eng, err := core.Open(filepath.Join(b.TempDir(), "classes.db"), core.Options{SearchShards: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	if err := eval.LoadClusterCorpus(eng, cfg); err != nil {
		b.Fatal(err)
	}
	queries := synthvid.ClusterQueries(cfg, 60)
	all := features.AllKinds()
	classes := []struct {
		name string
		opt  func(i int) core.SearchOptions
	}{
		{"rrf", func(int) core.SearchOptions { return core.SearchOptions{K: 10} }},
		{"single_kind", func(i int) core.SearchOptions {
			return core.SearchOptions{K: 10, Kinds: []features.Kind{all[i%len(all)]}}
		}},
		{"minmax", func(int) core.SearchOptions { return core.SearchOptions{K: 10, Fusion: core.FusionMinMax} }},
	}
	for _, c := range classes {
		b.Run(c.name, func(b *testing.B) { benchSearch(b, eng, queries, c.opt) })
	}
}

// benchSearch reports the mean row and centroid-bound evaluations per
// query over the whole pool (rowevals/op, cellevals/op), then times one
// query per iteration, rotating through the pool; opt(i) gives query i's
// options.
func benchSearch(b *testing.B, eng *core.Engine, queries []*synthvid.DescriptorFrame, opt func(i int) core.SearchOptions) {
	var rows, cells int64
	for i, q := range queries {
		_, st, err := eng.SearchWithSetStats(q.Set, q.Bucket, opt(i))
		if err != nil {
			b.Fatal(err)
		}
		rows += st.RowEvals
		cells += st.CellEvals
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		if _, err := eng.SearchWithSet(q.Set, q.Bucket, opt(i%len(queries))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows)/float64(len(queries)), "rowevals/op")
	b.ReportMetric(float64(cells)/float64(len(queries)), "cellevals/op")
}

// BenchmarkTraversalShapes runs fused RRF over cluster corpora whose
// shapes search_scale's planted 500-row clusters do not cover: few large
// clusters with almost no near-duplicates, many small ones, and smaller
// corpora at K 10 and 50. Each shape loads a seed-3 corpus and runs
// benchSearch over 40 cluster queries.
func BenchmarkTraversalShapes(b *testing.B) {
	shapes := []struct {
		name   string
		cfg    synthvid.ClusterCorpusConfig
		shards int
		k      int
	}{
		{"40k_8clusters_dup0.001", synthvid.ClusterCorpusConfig{Frames: 40000, Clusters: 8, NearDupRate: 0.001, Seed: 3}, 8, 100},
		{"40k_80clusters", synthvid.ClusterCorpusConfig{Frames: 40000, Clusters: 80, NearDupRate: 0.02, Seed: 3}, 8, 100},
		{"10k_20clusters_k10", synthvid.ClusterCorpusConfig{Frames: 10000, Clusters: 20, NearDupRate: 0.02, Seed: 3}, 4, 10},
		{"10k_8clusters_k50", synthvid.ClusterCorpusConfig{Frames: 10000, Clusters: 8, Seed: 3}, 4, 50},
	}
	for _, s := range shapes {
		func() { // one corpus in memory at a time
			eng, err := core.Open(filepath.Join(b.TempDir(), s.name+".db"), core.Options{SearchShards: s.shards})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			if err := eval.LoadClusterCorpus(eng, s.cfg); err != nil {
				b.Fatal(err)
			}
			queries := synthvid.ClusterQueries(s.cfg, 40)
			opt := func(int) core.SearchOptions { return core.SearchOptions{K: s.k} }
			b.Run(s.name, func(b *testing.B) { benchSearch(b, eng, queries, opt) })
		}()
	}
}
