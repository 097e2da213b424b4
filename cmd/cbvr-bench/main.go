// Command cbvr-bench regenerates every table and figure from the paper's
// evaluation section against a live CBVR instance:
//
//	cbvr-bench -table1        Table 1: precision@{20,30,50,100} per method
//	cbvr-bench -fig7          Fig. 7: range-index bucket population & pruning
//	cbvr-bench -fig8          Fig. 8: sample query frame algorithm outputs
//	cbvr-bench -ablations     design-choice ablations from DESIGN.md
//	cbvr-bench -all           everything
//
// The corpus is synthetic and seeded, so results are reproducible
// bit-for-bit for a given flag set.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"cbvr/internal/catalog"
	"cbvr/internal/core"
	"cbvr/internal/eval"
	"cbvr/internal/features"
	"cbvr/internal/keyframe"
	"cbvr/internal/rangeindex"
	"cbvr/internal/synthvid"
)

func main() {
	var (
		table1    = flag.Bool("table1", false, "reproduce Table 1")
		fig7      = flag.Bool("fig7", false, "reproduce Fig. 7 (range index)")
		fig8      = flag.Bool("fig8", false, "reproduce Fig. 8 (sample outputs)")
		ablations = flag.Bool("ablations", false, "run design-choice ablations")
		all       = flag.Bool("all", false, "run everything")
		perCat    = flag.Int("videos", 8, "videos per category")
		queries   = flag.Int("queries", 4, "queries per category")
		frames    = flag.Int("frames", 72, "frames per video")
		shots     = flag.Int("shots", 8, "shots per video")
		noise     = flag.Float64("noise", 18, "per-pixel noise amplitude")
		jitter    = flag.Float64("jitter", 18, "per-video hue jitter in degrees")
		seed      = flag.Int64("seed", 1, "corpus seed")
		dbPath    = flag.String("db", "", "database path (default: temp dir)")
	)
	flag.Parse()
	if *all {
		*table1, *fig7, *fig8, *ablations = true, true, true, true
	}
	if !*table1 && !*fig7 && !*fig8 && !*ablations {
		flag.Usage()
		os.Exit(2)
	}

	path := *dbPath
	if path == "" {
		dir, err := os.MkdirTemp("", "cbvr-bench-*")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
		path = filepath.Join(dir, "bench.db")
	}

	cfg := eval.Table1Config{
		VideosPerCategory:  *perCat,
		QueriesPerCategory: *queries,
		Video:              synthvid.Config{Frames: *frames, Shots: *shots, Noise: *noise, HueJitter: *jitter},
		Seed:               *seed,
	}

	eng, err := core.Open(path, core.Options{})
	if err != nil {
		fatal(err)
	}
	defer eng.Close()

	start := time.Now()
	n, err := eval.BuildCorpus(eng, cfg)
	if err != nil {
		fatal(err)
	}
	kf, err := eng.CacheSize()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("corpus: %d videos, %d key frames, ingested in %v\n\n",
		n, kf, time.Since(start).Round(time.Millisecond))

	if *table1 {
		runTable1(eng, cfg)
	}
	if *fig7 {
		runFig7(eng)
	}
	if *fig8 {
		runFig8(cfg)
	}
	if *ablations {
		runAblations(eng, cfg)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cbvr-bench:", err)
	os.Exit(1)
}

func runTable1(eng *core.Engine, cfg eval.Table1Config) {
	fmt.Println("== Table 1: average precision at 20, 30, 50 and 100 documents ==")
	qs := eval.BuildQueries(cfg)
	start := time.Now()
	res, err := eval.RunTable1(eng, qs)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("(%d queries in %v)\n\n", res.Queries, time.Since(start).Round(time.Millisecond))
	fmt.Println("measured:")
	fmt.Println(eval.FormatTable(res.Rows))
	fmt.Println("paper (Patel & Meshram, Table 1):")
	fmt.Println(eval.FormatTable(eval.PaperTable1()))
	combined := res.Row("Combined")
	wins := 0
	for ci := range eval.Cutoffs {
		best := 0.0
		for _, row := range res.Rows[:6] {
			if row.P[ci] > best {
				best = row.P[ci]
			}
		}
		if combined.P[ci] >= best {
			wins++
		}
	}
	fmt.Printf("shape check: combined >= best single feature at %d/4 cut-offs\n\n", wins)
}

func runFig7(eng *core.Engine) {
	fmt.Println("== Fig. 7: histogram-based range-finder index ==")
	sizes := make(map[rangeindex.Range]int)
	n := 0
	err := eng.Store().ScanKeyFrames(nil, func(k *catalog.KeyFrame) (bool, error) {
		sizes[k.Range()]++
		n++
		return true, nil
	})
	if err != nil {
		fatal(err)
	}
	ranges := make([]rangeindex.Range, 0, len(sizes))
	for r := range sizes {
		ranges = append(ranges, r)
	}
	sort.Slice(ranges, func(i, j int) bool {
		if ranges[i].Min != ranges[j].Min {
			return ranges[i].Min < ranges[j].Min
		}
		return ranges[i].Max < ranges[j].Max
	})
	fmt.Printf("%-12s %8s\n", "bucket", "frames")
	for _, r := range ranges {
		fmt.Printf("%-12s %8d\n", r, sizes[r])
	}
	fmt.Printf("indexed frames:  %d in %d buckets\n", n, len(sizes))
	fmt.Printf("pruning factor:  %.3f (fraction of index scanned per query; 1.0 = no pruning)\n\n", rangeindex.PruningFactor(sizes))
}

func runFig8(cfg eval.Table1Config) {
	fmt.Println("== Fig. 8: sample query frame and algorithm outputs ==")
	qs := eval.BuildQueries(cfg)
	frame := qs[0].Frame
	fmt.Printf("query frame: %dx%d (%v)\n\n", frame.W, frame.H, qs[0].Category)

	set, bucket := core.Describe(frame.Source(), nil)

	fmt.Println("Algorithm : SimpleColorHistogram")
	fmt.Printf("Output : min = %d, max=%d\n", bucket.Min, bucket.Max)
	fmt.Printf("Histogram : %.120s...\n\n", set.Histogram.String())
	fmt.Println("Algorithm : GLCM_Texture")
	fmt.Printf("Output :\n%s\n\n", set.GLCM.String())
	fmt.Println("Algorithm : Gabor Texture")
	fmt.Printf("Output :\n%.160s...\n\n", set.Gabor.String())
	fmt.Println("Algorithm : Tamura Texture")
	fmt.Printf("Output :\n%s\n\n", set.Tamura.String())
	fmt.Println("Algorithm : SimpleRegionGrowing")
	fmt.Printf("Output : Majorregions : %d\n\n", set.Regions.Major)
	fmt.Println("Algorithm : AutoColorCorrelogram")
	fmt.Printf("Output :\n%.160s...\n\n", set.Correlogram.String())
	fmt.Println("Algorithm : NaiveVector")
	fmt.Printf("Output :\n%.160s...\n\n", set.Naive.String())
}

func runAblations(eng *core.Engine, cfg eval.Table1Config) {
	fmt.Println("== Ablations ==")
	qs := eval.BuildQueries(cfg)

	// 1. Range pruning on/off: result quality and candidate counts.
	fmt.Println("-- range pruning (query frame search) --")
	var prunedTime, fullTime time.Duration
	agreeTop1 := 0
	for _, q := range qs {
		t0 := time.Now()
		p, err := eng.SearchFrame(q.Frame, core.SearchOptions{K: 1})
		prunedTime += time.Since(t0)
		if err != nil {
			fatal(err)
		}
		t0 = time.Now()
		f, err := eng.SearchFrame(q.Frame, core.SearchOptions{K: 1, NoPruning: true})
		fullTime += time.Since(t0)
		if err != nil {
			fatal(err)
		}
		if len(p) > 0 && len(f) > 0 && p[0].KeyFrameID == f[0].KeyFrameID {
			agreeTop1++
		}
	}
	fmt.Printf("pruned search:   %v total\n", prunedTime.Round(time.Millisecond))
	fmt.Printf("full search:     %v total\n", fullTime.Round(time.Millisecond))
	fmt.Printf("top-1 agreement: %d/%d\n\n", agreeTop1, len(qs))

	// 2. Key-frame threshold sweep: compression vs key-frame count.
	fmt.Println("-- key-frame threshold sweep (section 4.1, default 800) --")
	v := synthvid.Generate(synthvid.Sports, synthvid.Config{Frames: 48, Shots: 4, Seed: cfg.Seed})
	fmt.Printf("%-10s %10s %12s\n", "threshold", "keyframes", "compression")
	for _, thr := range []float64{200, 400, 800, 1600, 3200} {
		kfs, err := keyframe.Extractor{Threshold: thr}.Extract(v.Frames)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-10.0f %10d %11.1fx\n", thr, len(kfs), float64(len(v.Frames))/float64(len(kfs)))
	}
	fmt.Println()

	// 3. DP video alignment vs best-single-frame matching.
	fmt.Println("-- video search: DP alignment vs best-single-frame --")
	dpHits, bsHits := 0, 0
	for _, cat := range synthvid.AllCategories() {
		qv := synthvid.Generate(cat, synthvid.Config{Frames: 24, Shots: 3, Seed: cfg.Seed + 555})
		qframes := qv.Frames[:min(len(qv.Frames), 8)]
		dp, err := eng.SearchVideoCtx(context.Background(), qframes, core.SearchOptions{K: 1})
		if err != nil {
			fatal(err)
		}
		qsets := eng.ExtractQuerySets(qframes)
		bs, err := eng.BestSingleFrameVideoSearch(qsets, core.SearchOptions{K: 1})
		if err != nil {
			fatal(err)
		}
		if len(dp) > 0 {
			if c, ok := eval.CategoryOfVideoName(dp[0].VideoName); ok && c == cat {
				dpHits++
			}
		}
		if len(bs) > 0 {
			if c, ok := eval.CategoryOfVideoName(bs[0].VideoName); ok && c == cat {
				bsHits++
			}
		}
	}
	fmt.Printf("DP alignment top-1 category hits:       %d/%d\n", dpHits, synthvid.NumCategories)
	fmt.Printf("best-single-frame top-1 category hits:  %d/%d\n\n", bsHits, synthvid.NumCategories)

	// 4. Fusion weighting: equal vs texture-heavy weights. Min-max fusion,
	// because RRF fuses ranks and ignores Weights.
	fmt.Println("-- fusion weights (combined search, P@20) --")
	kinds := features.AllKinds()
	equal := measureP20(eng, qs, core.SearchOptions{Kinds: kinds, Fusion: core.FusionMinMax})
	// kinds is AllKinds, so a weight's index is its kind.
	weights := make([]float64, len(kinds))
	for i := range weights {
		weights[i] = 1
	}
	weights[features.KindGabor], weights[features.KindTamura] = 2, 2
	texture := measureP20(eng, qs, core.SearchOptions{Kinds: kinds, Weights: weights, Fusion: core.FusionMinMax})
	fmt.Printf("equal weights:          P@20 = %.3f\n", equal)
	fmt.Printf("texture-heavy weights:  P@20 = %.3f\n\n", texture)
}

func measureP20(eng *core.Engine, qs []eval.Query, opt core.SearchOptions) float64 {
	opt.K = 20
	opt.NoPruning = true
	var ps []float64
	for _, q := range qs {
		matches, err := eng.SearchFrame(q.Frame, opt)
		if err != nil {
			fatal(err)
		}
		rel := make([]bool, len(matches))
		for i, m := range matches {
			c, ok := eval.CategoryOfVideoName(m.VideoName)
			rel[i] = ok && c == q.Category
		}
		ps = append(ps, eval.PrecisionAtK(rel, 20))
	}
	return eval.Mean(ps)
}
