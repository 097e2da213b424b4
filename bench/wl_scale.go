package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"cbvr/bench/loadgen"
	"cbvr/bench/trace"
	"cbvr/internal/core"
	"cbvr/internal/eval"
	"cbvr/internal/features"
	"cbvr/internal/synthvid"
)

// scaleShards is the engine's shard count on search_scale, fixed so that
// the number of processors does not change the work per query.
const scaleShards = 8

// scaleWorkload is search_scale: an in-process engine over a planted
// descriptor-space corpus and two goroutines that search it with
// pre-extracted queries. No pixels, no store rows, no HTTP: all of the
// time is core's cell ranking, arena sweep, fusion and top-K.
type scaleWorkload struct {
	env
	cfg     synthvid.ClusterCorpusConfig
	queries []querySet // the timed pool, then the recall gate's
	order   [clients][]int

	dir      string
	eng      *core.Engine
	loadRate float64 // rows published per second
	loadS    float64 // open plus load: what a restart of this engine costs
	recall   float64
	rss      float64
}

func (w *scaleWorkload) generate(e env) error {
	w.env = e
	w.cfg = synthvid.ClusterCorpusConfig{Frames: e.sz.scaleRows, Seed: e.seed}
	for _, f := range synthvid.ClusterQueries(w.cfg, e.sz.scaleQueries+e.sz.recallQueries) {
		w.queries = append(w.queries, querySet{set: f.Set, bucket: f.Bucket})
	}
	for c := range w.order {
		w.order[c] = loadgen.Order(e.seed, c, e.sz.scaleQueries)
	}
	return nil
}

func (w *scaleWorkload) setup() (err error) {
	if w.dir, err = tempDir("scale"); err != nil {
		return err
	}
	t0 := time.Now()
	if w.eng, err = core.Open(filepath.Join(w.dir, "scale.db"), core.Options{SearchShards: scaleShards}); err != nil {
		return err
	}
	if err := eval.LoadClusterCorpus(w.eng, w.cfg); err != nil {
		return err
	}
	w.loadS = time.Since(t0).Seconds()
	w.loadRate = float64(w.cfg.Frames) / w.loadS
	warm := loadgen.Run(loadgen.Config{Clients: clients, Warmup: w.sz.warmup}, w.op(nil))
	if warm.Err != nil {
		return fmt.Errorf("warm-up: %w", warm.Err)
	}
	return nil
}

func (w *scaleWorkload) discard() {
	if w.eng != nil {
		w.eng.Close()
		w.eng = nil
	}
	os.RemoveAll(w.dir)
	// The next set-up builds the same arenas again; hand the old ones
	// back first so that peak RSS is one corpus, not three.
	runtime.GC()
	debug.FreeOSMemory()
}

// class picks the search a stream position sends: of every ten, seven are
// fused RRF over all kinds (what the server sends), two single-kind
// rotating over the seven kinds, one fused min-max.
func class(i int) core.SearchOptions {
	switch i % 10 {
	case 3, 8:
		all := features.AllKinds()
		return core.SearchOptions{K: topK, Kinds: []features.Kind{all[(i/5)%len(all)]}}
	case 6:
		return core.SearchOptions{K: topK, Fusion: core.FusionMinMax}
	}
	return core.SearchOptions{K: topK}
}

func (w *scaleWorkload) op(rec *trace.Recorder) loadgen.Op {
	return func(c, i int) error {
		q := w.queries[w.order[c][i%len(w.order[c])]]
		s := rec.Start("bench.call", -1, c<<24|i)
		ms, err := w.eng.SearchWithSet(q.set, q.bucket, class(i))
		rec.End(s)
		if err == nil && len(ms) != topK {
			err = fmt.Errorf("search returned %d matches, want %d", len(ms), topK)
		}
		return err
	}
}

func (w *scaleWorkload) measure(window time.Duration, rec *trace.Recorder) measured {
	return windowOf(loadgen.Run(loadgen.Config{Clients: clients, Duration: window, MaxOps: w.sz.maxOps}, w.op(rec)))
}

func (w *scaleWorkload) idle(n int) measured {
	return windowOf(loadgen.Run(loadgen.Config{Clients: 1, MaxOps: n}, w.op(nil)))
}

func (w *scaleWorkload) finish() (problems []string) {
	fail := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }

	// Single-kind search is exact: it must equal the naive full-sort
	// reference rank for rank, distance for distance.
	all := features.AllKinds()
	for i := 0; i < 3; i++ {
		q := w.queries[i]
		opt := core.SearchOptions{K: topK, Kinds: []features.Kind{all[(2*i)%len(all)]}}
		got, err := w.eng.SearchWithSet(q.set, q.bucket, opt)
		if err != nil {
			fail("single-kind search %d: %v", i, err)
			continue
		}
		want, err := w.eng.SearchWithSetReference(q.set, q.bucket, opt)
		if err != nil {
			fail("reference search %d: %v", i, err)
			continue
		}
		if len(got) != len(want) {
			fail("single-kind query %d: %d matches, reference %d", i, len(got), len(want))
			continue
		}
		for r := range got {
			if got[r].KeyFrameID != want[r].KeyFrameID || got[r].Distance != want[r].Distance {
				fail("single-kind query %d rank %d: %d at %v, reference %d at %v", i, r,
					got[r].KeyFrameID, got[r].Distance, want[r].KeyFrameID, want[r].Distance)
				break
			}
		}
	}

	// Fused RRF probes a cell budget: its top 10 must overlap the exact
	// arm's. The queries are outside the timed pool.
	var sum float64
	gate := w.queries[w.sz.scaleQueries:]
	for i, q := range gate {
		pruned, err := w.eng.SearchWithSet(q.set, q.bucket, core.SearchOptions{K: topK})
		if err != nil {
			fail("recall query %d: %v", i, err)
			continue
		}
		exact, err := w.eng.SearchWithSet(q.set, q.bucket, core.SearchOptions{K: topK, NoCellPruning: true})
		if err != nil {
			fail("exact query %d: %v", i, err)
			continue
		}
		in := make(map[int64]bool, len(exact))
		for _, m := range exact {
			in[m.KeyFrameID] = true
		}
		hit := 0
		for _, m := range pruned {
			if in[m.KeyFrameID] {
				hit++
			}
		}
		sum += float64(hit) / float64(len(exact))
	}
	w.recall = sum / float64(len(gate))
	if w.recall < 0.95 {
		fail("recall@%d of the pruned search is %.3f, below 0.95", topK, w.recall)
	}

	var err error
	if w.rss, err = peakRSSMB(os.Getpid()); err != nil {
		fail("peak RSS: %v", err)
	}
	return problems
}

func (w *scaleWorkload) writeRate() float64 { return w.loadRate }
func (w *scaleWorkload) quality() float64   { return w.recall }
func (w *scaleWorkload) peakRSS() float64   { return w.rss }

func (w *scaleWorkload) layers(rec *trace.Recorder, n int) (layerReport, error) {
	// The rows live in the search cache only, so a restart is a reload.
	rep := layerReport{restartMs: w.loadS * 1e3}
	for i := 0; i < n; i++ {
		if err := replaySetSearch(rec, i, w.eng, w.queries[w.order[0][i%len(w.order[0])]], class(i)); err != nil {
			return rep, err
		}
	}
	var err error
	if rep.metrics, err = coreProbes(w.eng, w.queries[:w.sz.scaleQueries], w.sz.probeReps); err != nil {
		return rep, err
	}
	rep.metrics["vstore.data_bytes_per_input_byte"] = 0
	rep.metrics["vstore.wal_bytes_per_input_byte"] = 0
	return rep, nil
}
