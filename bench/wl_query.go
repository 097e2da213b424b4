package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"cbvr/bench/loadgen"
	"cbvr/bench/trace"
	"cbvr/internal/catalog"
	"cbvr/internal/core"
	"cbvr/internal/imaging"
	"cbvr/internal/vstore"
)

// queryWorkload is query_frame_http and, with mixed set, mixed_rw: a
// pixel corpus loaded through POST /api/v1/ingest, then raw-JPEG searches
// against it. mixed_rw gives one of the two clients to a writer that
// loops ingest → reindex → delete of one extra video, so the store's
// size is the same before and after.
type queryWorkload struct {
	env
	mixed bool

	corpus  []loadgen.Container
	queries []loadgen.QueryFrame
	uploads []loadgen.Container // bodies of the writer's cycle
	order   [clients][]int      // each client's walk through the queries

	sys       *httpSystem
	loadRate  float64   // corpus videos ingested per second, of the last set-up
	keyFrames int       // key frames the corpus load was acked
	before    [][]int64 // mixed_rw: rankings of the sampled queries before the window

	mu   sync.Mutex
	last [][]match // latest answer per query

	cycles    int // mixed_rw: write cycles completed in the window
	cycleWall time.Duration
	rss       float64
	restartMs float64
}

func (w *queryWorkload) generate(e env) (err error) {
	w.env = e
	if w.corpus, err = loadgen.Containers(e.seed, e.sz.corpusPerCategory, e.sz.corpusShape); err != nil {
		return err
	}
	if w.queries, err = loadgen.QueryFrames(e.seed, e.sz.queryClips, e.sz.queryPerClip, e.sz.corpusShape); err != nil {
		return err
	}
	// The uploads use another seed than the corpus: a writer that put a
	// copy of a corpus video in and out would change no ranking.
	if w.uploads, err = loadgen.Containers(e.seed+1, e.sz.uploadPerCategory, e.sz.uploadShape); err != nil {
		return err
	}
	for c := range w.order {
		w.order[c] = loadgen.Order(e.seed, c, len(w.queries))
	}
	w.last = make([][]match, len(w.queries))
	return nil
}

func (w *queryWorkload) setup() (err error) {
	if w.sys, err = startSystem(w.serverBin); err != nil {
		return err
	}
	// One client loads the corpus, so that video and key-frame ids, and
	// with them every ranking, repeat exactly.
	t0 := time.Now()
	w.keyFrames = 0
	for _, c := range w.corpus {
		a, err := w.sys.cl.ingest(c.Name, c.Bytes)
		if err != nil {
			return err
		}
		w.keyFrames += len(a.KeyFrameIDs)
	}
	w.loadRate = float64(len(w.corpus)) / time.Since(t0).Seconds()

	warm := loadgen.Run(loadgen.Config{Clients: clients, Warmup: w.sz.warmup}, w.searchOp(nil))
	if warm.Err != nil {
		return fmt.Errorf("warm-up: %w", warm.Err)
	}
	if w.mixed {
		if err := w.writeCycle(nil, 0, 0); err != nil {
			return fmt.Errorf("warm-up write cycle: %w", err)
		}
		if w.before, err = w.sampleRankings(); err != nil {
			return err
		}
	}
	return nil
}

func (w *queryWorkload) discard() {
	w.sys.discard()
	w.sys = nil
}

// searchOp sends the next query of the client's walk.
func (w *queryWorkload) searchOp(rec *trace.Recorder) loadgen.Op {
	return func(c, i int) error {
		qi := w.order[c][i%len(w.queries)]
		s := rec.Start("server.roundtrip", -1, c<<24|i)
		ms, err := w.sys.cl.search(w.queries[qi].JPEG, topK)
		rec.End(s)
		if err != nil {
			return err
		}
		w.mu.Lock()
		w.last[qi] = ms
		w.mu.Unlock()
		return nil
	}
}

// writeCycle puts one new video in, re-indexes it and takes it out again.
func (w *queryWorkload) writeCycle(rec *trace.Recorder, id, i int) error {
	up := w.uploads[i%len(w.uploads)]
	s := rec.Start("server.roundtrip", -1, id)
	defer rec.End(s)
	a, err := w.sys.cl.ingest(fmt.Sprintf("%s_w%05d", up.Category, i), up.Bytes)
	if err != nil {
		return err
	}
	if err := w.sys.cl.reindex(a.VideoID); err != nil {
		return err
	}
	return w.sys.cl.delete(a.VideoID)
}

func (w *queryWorkload) measure(window time.Duration, rec *trace.Recorder) measured {
	search := w.searchOp(rec)
	op := search
	if w.mixed {
		// Client 1 is the writer.
		op = func(c, i int) error {
			if c == 1 {
				return w.writeCycle(rec, c<<24|i, i)
			}
			return search(c, i)
		}
	}
	res := loadgen.Run(loadgen.Config{Clients: clients, Duration: window, MaxOps: w.sz.maxOps}, op)
	m := windowOf(res)
	if w.mixed {
		m.lat, m.wall = res.PerClient[0], res.ClientWall[0]
		w.cycles, w.cycleWall = len(res.PerClient[1]), res.ClientWall[1]
	}
	return m
}

func (w *queryWorkload) idle(n int) measured {
	return windowOf(loadgen.Run(loadgen.Config{Clients: 1, MaxOps: n}, func(_, i int) error {
		_, err := w.sys.cl.search(w.queries[w.order[0][i%len(w.queries)]].JPEG, topK)
		return err
	}))
}

// sampled is the indices of the queries whose rankings the gates compare.
func (w *queryWorkload) sampled() []int {
	return w.order[0][:min(w.sz.sampled, len(w.queries))]
}

func ids(ms []match) []int64 {
	out := make([]int64, len(ms))
	for i, m := range ms {
		out[i] = m.KeyFrameID
	}
	return out
}

func (w *queryWorkload) sampleRankings() ([][]int64, error) {
	var out [][]int64
	for _, qi := range w.sampled() {
		ms, err := w.sys.cl.search(w.queries[qi].JPEG, topK)
		if err != nil {
			return nil, err
		}
		out = append(out, ids(ms))
	}
	return out, nil
}

func (w *queryWorkload) finish() (problems []string) {
	fail := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	sys := w.sys
	if err := sys.srv.alive(); err != nil {
		return []string{err.Error()}
	}
	if n := sys.cl.refused.Load(); n > 0 {
		fail("%d requests were refused with 429 or 503", n)
	}

	if w.mixed {
		// The writer has finished its last cycle: the store must be back
		// to the corpus, and every sampled ranking back to what it was.
		names, keyFrames, err := sys.cl.listing()
		if err != nil {
			fail("listing: %v", err)
		}
		want := make([]string, len(w.corpus))
		for i, c := range w.corpus {
			want[i] = c.Name
		}
		sort.Strings(want)
		sort.Strings(names)
		if !slices.Equal(names, want) || keyFrames != w.keyFrames {
			fail("store after the run holds %d videos and %d key frames, corpus is %d and %d", len(names), keyFrames, len(want), w.keyFrames)
		}
		after, err := w.sampleRankings()
		if err != nil {
			fail("rankings after the run: %v", err)
		}
		for i := range after {
			if !slices.Equal(after[i], w.before[i]) {
				fail("sampled query %d ranks %v after the run, %v before", i, after[i], w.before[i])
			}
		}
	}

	var err error
	if w.rss, err = peakRSSMB(sys.srv.cmd.Process.Pid); err != nil {
		fail("server peak RSS: %v", err)
	}
	if err := sys.srv.stop(syscall.SIGTERM); err != nil {
		fail("%v", err)
	}
	if w.restartMs, err = sys.restart(w.serverBin, w.queries[0].JPEG); err != nil {
		fail("%v", err)
	}
	if err := sys.reopen(); err != nil {
		return append(problems, err.Error())
	}
	rep, err := vstore.Check(sys.eng.Store().DB())
	if err != nil || !rep.Clean() {
		fail("fsck of the store after the run: %v %v", err, rep)
	}
	if !w.mixed {
		// What the server answered over HTTP must be what the engine
		// answers in-process on the same store. On mixed_rw the answers
		// of the window saw the writer's extra video, so they are not
		// compared; the before/after check above covers it.
		for _, qi := range w.sampled() {
			w.mu.Lock()
			got := w.last[qi]
			w.mu.Unlock()
			if got == nil {
				continue // the window closed before the walk reached it
			}
			im, err := imaging.DecodeJPEG(bytes.NewReader(w.queries[qi].JPEG))
			if err != nil {
				fail("decode query %d: %v", qi, err)
				continue
			}
			ms, err := sys.eng.SearchFrame(im, core.SearchOptions{K: topK})
			if err != nil {
				fail("in-process search %d: %v", qi, err)
				continue
			}
			want := make([]int64, len(ms))
			for i, m := range ms {
				want[i] = m.KeyFrameID
			}
			if !slices.Equal(ids(got), want) {
				fail("query %d ranked %v over HTTP, %v in-process", qi, ids(got), want)
			}
		}
	}
	return problems
}

func (w *queryWorkload) writeRate() float64 {
	if w.mixed {
		return float64(w.cycles) / w.cycleWall.Seconds()
	}
	return w.loadRate
}

// quality is precision@10 by category, averaged over the queries that
// were answered, each by its latest answer.
func (w *queryWorkload) quality() float64 {
	var sum float64
	n := 0
	for qi, ms := range w.last {
		if ms == nil {
			continue
		}
		names := make([]string, len(ms))
		for i, m := range ms {
			names[i] = m.VideoName
		}
		sum += precision(names, w.queries[qi].Category)
		n++
	}
	return sum / float64(n)
}

func (w *queryWorkload) peakRSS() float64 { return w.rss }

func (w *queryWorkload) layers(rec *trace.Recorder, n int) (layerReport, error) {
	rep := layerReport{restartMs: w.restartMs}
	rep.refusedShare, rep.brownedShare = w.sys.cl.shares()
	eng := w.sys.eng
	data, wal, err := w.sys.storeBytes()
	if err != nil {
		return rep, err
	}

	// The engine's whole search, for the server's share of a round trip.
	ctx := context.Background()
	walk := w.order[0]
	if rep.inprocP50, err = timeCalls(n, func(i int) error {
		im, err := imaging.DecodeJPEG(bytes.NewReader(w.queries[walk[i%len(walk)]].JPEG))
		if err != nil {
			return err
		}
		_, err = eng.SearchFrameCtx(ctx, im, core.SearchOptions{K: topK})
		return err
	}); err != nil {
		return rep, err
	}

	// The same searches call by call, for the shares.
	qs := make([]querySet, n)
	for i := range qs {
		if qs[i], _, err = replaySearch(rec, i, eng, w.queries[walk[i%len(walk)]].JPEG); err != nil {
			return rep, err
		}
	}
	if w.mixed {
		scratch, err := catalog.Open(filepath.Join(w.sys.dir, "replay.db"), nil)
		if err != nil {
			return rep, err
		}
		defer scratch.DB().Close()
		// One write cycle per four searches is about what a window runs.
		for i := 0; i < max(1, n/4); i++ {
			if err := replayWriteCycle(rec, n+i, eng, scratch, w.uploads[i%len(w.uploads)]); err != nil {
				return rep, err
			}
		}
	}

	if rep.metrics, err = coreProbes(eng, qs, w.sz.probeReps); err != nil {
		return rep, err
	}
	var input int64
	for _, c := range w.corpus {
		input += int64(len(c.Bytes))
	}
	rep.metrics["vstore.data_bytes_per_input_byte"] = float64(data) / float64(input)
	rep.metrics["vstore.wal_bytes_per_input_byte"] = float64(wal) / float64(input)
	return rep, nil
}

// replayWriteCycle is mixed_rw's write cycle in-process. The ingest is
// spelled out layer by layer on a scratch store; re-index and delete have
// no public seams below the engine and stay one core span each, on a video
// the engine ingested itself.
func replayWriteCycle(rec *trace.Recorder, opID int, eng *core.Engine, scratch *catalog.Store, up loadgen.Container) error {
	name := fmt.Sprintf("%s_r%05d", up.Category, opID)
	if _, err := replayIngest(rec, opID, scratch, name, up.Bytes); err != nil {
		return err
	}
	ctx := context.Background()
	res, err := eng.IngestVideoStreamCtx(ctx, name, bytes.NewReader(up.Bytes))
	if err != nil {
		return err
	}
	s := rec.Start("core.reindex_video", -1, opID)
	_, err = eng.ReindexVideoCtx(ctx, res.VideoID)
	rec.End(s)
	if err != nil {
		return err
	}
	s = rec.Start("core.delete_video", -1, opID)
	defer rec.End(s)
	return eng.DeleteVideo(res.VideoID)
}
