package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"cbvr/bench/loadgen"
	"cbvr/bench/trace"
	"cbvr/internal/core"
	"cbvr/internal/eval"
	"cbvr/internal/synthvid"
)

// clients is the closed loop's width. The box has two cores and the
// server shares them with the harness, so two callers that each wait for
// their reply already keep it CPU-bound.
const clients = 2

// topK is the result depth of every search the benchmark sends.
const topK = 10

// sizes fixes how much input a run generates. The full sizes are tuned so
// that three set-ups, a ten-second window and the gates fit in well under
// forty seconds on two cores; the smoke sizes only prove the plumbing.
type sizes struct {
	setupRepeats int // set-ups per run; setup_s is their median

	corpusPerCategory int           // videos per category the query workloads search
	corpusShape       loadgen.Shape //
	queryClips        int           // held-out clips per category
	queryPerClip      int           // query frames taken of each

	uploadPerCategory int // distinct ingest bodies per category
	uploadShape       loadgen.Shape

	scaleRows     int // descriptor rows of search_scale
	scaleQueries  int // timed query pool
	recallQueries int // queries of the recall gate, outside the timed pool

	warmup    int // untimed ops per client before the window
	maxOps    int // timed ops per client; 0 means "until the window closes"
	minBeyond int // samples required beyond a reported percentile
	sampled   int // rankings compared ID for ID by the gates
	idleOps   int // ops of the single-client pass of a traced run
	replayOps int // ops replayed in-process under child spans
	probeReps int // calls per core probe
	probeSet  int // query frames, and half as many containers, the pixel probes run on
}

var fullSizes = sizes{
	setupRepeats:      3,
	corpusPerCategory: 4,
	corpusShape:       loadgen.Shape{Width: 160, Height: 120, Frames: 48, Shots: 5, Noise: 18},
	queryClips:        4,
	queryPerClip:      4,
	uploadPerCategory: 4,
	uploadShape:       loadgen.Shape{Width: 160, Height: 120, Frames: 24, Shots: 3},
	scaleRows:         40000,
	scaleQueries:      128,
	recallQueries:     64,
	warmup:            8,
	minBeyond:         loadgen.MinBeyond,
	sampled:           16,
	idleOps:           40,
	replayOps:         24,
	probeReps:         16,
	probeSet:          12,
}

var smokeSizes = sizes{
	setupRepeats:      1,
	corpusPerCategory: 1,
	corpusShape:       loadgen.Shape{Width: 96, Height: 72, Frames: 12, Shots: 3, Noise: 18},
	queryClips:        1,
	queryPerClip:      2,
	uploadPerCategory: 1,
	uploadShape:       loadgen.Shape{Width: 96, Height: 72, Frames: 8, Shots: 2},
	scaleRows:         2000,
	scaleQueries:      16,
	recallQueries:     8,
	warmup:            1,
	maxOps:            5,
	minBeyond:         0,
	sampled:           2,
	idleOps:           2,
	replayOps:         2,
	probeReps:         2,
	probeSet:          2,
}

// env is what every workload is given.
type env struct {
	seed      int64
	sz        sizes
	serverBin string
}

// measured is one closed-loop window, reduced to the workload's primary
// operation (searches; ingests on ingest_stream).
type measured struct {
	lat               []time.Duration
	wall              time.Duration
	attempted, failed int
	err               error
}

// windowOf reduces a closed-loop run in which every client sent the primary
// operation.
func windowOf(res loadgen.Result) measured {
	return measured{lat: res.Latencies(), wall: res.Wall, attempted: res.Attempted, failed: res.Failed, err: res.Err}
}

// workload is one named traffic mix. A run calls generate once, setup
// (and discard) sz.setupRepeats times, measure, then finish; the traced
// run adds idle and replay. discard is always the last call.
type workload interface {
	// generate makes the inputs from the seed. Its time is in no metric.
	generate(e env) error
	// setup goes from "inputs generated" to "ready for the first timed
	// op": process spawn, corpus load and warm-up.
	setup() error
	// discard throws away everything setup and finish built.
	discard()
	// measure runs the closed loop until the window closes.
	measure(window time.Duration, rec *trace.Recorder) measured
	// finish quiesces the system and runs the correctness gates. It
	// returns one line per failed gate.
	finish() []string

	// writeRate is write_ops_per_s, quality quality_at_10, peakRSS
	// peak_rss_mb; all are valid after finish.
	writeRate() float64
	quality() float64
	peakRSS() float64

	// idle runs n primary ops from one client with nothing else going
	// on, for load.p50_vs_idle_ratio. Call it before finish.
	idle(n int) measured
	// layers replays n ops in-process under child spans on rec and
	// measures the layers on the workload's own system. Call it after
	// finish.
	layers(rec *trace.Recorder, n int) (layerReport, error)
}

// layerReport is what a workload measured on its own system for the
// traced run.
type layerReport struct {
	// metrics holds the core.* probes on the engine the workload searched
	// and the vstore.*_bytes_per_input_byte of its store.
	metrics map[string]float64
	// inprocP50 is the median time in ms of the primary operation run
	// in-process on the same store, with no server in front; 0 where the
	// workload has no server.
	inprocP50 float64
	// restartMs is the time from starting the system on the workload's
	// final data to its first answered search.
	restartMs float64
	// refusedShare and brownedShare are the admission controller's view
	// of the run: 429/503 responses, and searches it ran degraded.
	refusedShare, brownedShare float64
}

// workloads are the benchmark's traffic mixes, by the names BENCHMARK.json
// declares them under.
var workloads = map[string]func() workload{
	"query_frame_http": func() workload { return &queryWorkload{} },
	"mixed_rw":         func() workload { return &queryWorkload{mixed: true} },
	"ingest_stream":    func() workload { return &ingestWorkload{} },
	"search_scale":     func() workload { return &scaleWorkload{} },
}

// httpSystem is a cbvr-server child on a durable store in a temp dir, and
// the client that talks to it.
type httpSystem struct {
	dir string
	db  string
	srv *server
	cl  *api
	eng *core.Engine // the store reopened in-process, after the child ended
}

func startSystem(bin string) (*httpSystem, error) {
	dir, err := tempDir("store")
	if err != nil {
		return nil, err
	}
	s := &httpSystem{dir: dir, db: filepath.Join(dir, "bench.db")}
	if s.srv, err = startServer(bin, s.db); err != nil {
		return nil, err
	}
	s.cl = newAPI(s.srv.addr)
	return s, nil
}

// reopen opens the store in-process. The child must have ended: vstore is
// a single-process store.
func (s *httpSystem) reopen() error {
	eng, err := core.Open(s.db, core.Options{})
	if err != nil {
		return fmt.Errorf("reopen store: %w", err)
	}
	if _, err := eng.CacheSize(); err != nil { // forces WAL replay's rows into the cache
		eng.Close()
		return fmt.Errorf("warm reopened store: %w", err)
	}
	s.eng = eng
	return nil
}

func (s *httpSystem) discard() {
	if s == nil {
		return
	}
	if s.eng != nil {
		s.eng.Close()
	}
	if s.srv != nil {
		s.srv.stop(syscall.SIGKILL)
		s.cl.close()
	}
	os.RemoveAll(s.dir)
}

// restart starts a server on the store the stopped child left behind and
// times it up to its first answered search: WAL replay after a kill, cache
// warm-up, listen, one query.
func (s *httpSystem) restart(bin string, jpeg []byte) (ms float64, err error) {
	t0 := time.Now()
	srv, err := startServer(bin, s.db)
	if err != nil {
		return 0, fmt.Errorf("restart: %w", err)
	}
	cl := newAPI(srv.addr)
	defer cl.close()
	if _, err := cl.search(jpeg, topK); err != nil {
		srv.stop(syscall.SIGKILL)
		return 0, fmt.Errorf("first search after the restart: %w", err)
	}
	ms = loadgen.Millis(time.Since(t0))
	return ms, srv.stop(syscall.SIGTERM)
}

// storeBytes is the size of the data file and of its WAL.
func (s *httpSystem) storeBytes() (data, wal int64, err error) {
	d, err := os.Stat(s.db)
	if err != nil {
		return 0, 0, err
	}
	l, err := os.Stat(s.db + ".wal")
	if err != nil {
		return 0, 0, err
	}
	return d.Size(), l.Size(), nil
}

// precision is the share of a ranking whose video is of the query's
// category: the paper's Table 1 measure.
func precision(videoNames []string, want synthvid.Category) float64 {
	hit := 0
	for _, n := range videoNames {
		if cat, ok := eval.CategoryOfVideoName(n); ok && cat == want {
			hit++
		}
	}
	return float64(hit) / float64(len(videoNames))
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func medianMillis(ds []time.Duration) float64 {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = loadgen.Millis(d)
	}
	return median(vs)
}
