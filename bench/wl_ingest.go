package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"slices"
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

// ingestWorkload is ingest_stream: a fresh, empty store and two clients
// that post raw CVJ containers under unique names. When the window closes
// the server is SIGKILLed and the store reopened in-process: every acked
// video must be there, whole, and the file must pass fsck.
type ingestWorkload struct {
	env
	uploads []loadgen.Container
	queries []loadgen.QueryFrame // held-out frames of the same categories, for quality_at_10

	sys *httpSystem

	mu        sync.Mutex
	acks      []ack
	sent      int64 // container bytes of the acked uploads
	next      int   // suffix of the next upload name
	rate      float64
	prec      float64
	rss       float64
	data, wal int64 // file sizes right after the kill
	restartMs float64
}

func (w *ingestWorkload) generate(e env) (err error) {
	w.env = e
	if w.uploads, err = loadgen.Containers(e.seed, e.sz.uploadPerCategory, e.sz.uploadShape); err != nil {
		return err
	}
	w.queries, err = loadgen.QueryFrames(e.seed, 1, 4, e.sz.uploadShape)
	return err
}

func (w *ingestWorkload) setup() (err error) {
	if w.sys, err = startSystem(w.serverBin); err != nil {
		return err
	}
	w.acks, w.sent = nil, 0
	warm := loadgen.Run(loadgen.Config{Clients: clients, Warmup: w.sz.warmup}, w.op(nil))
	if warm.Err != nil {
		return fmt.Errorf("warm-up: %w", warm.Err)
	}
	return nil
}

func (w *ingestWorkload) discard() {
	w.sys.discard()
	w.sys = nil
}

// op uploads the next container, round-robin over the pre-encoded bodies,
// under a name no earlier upload of this run had.
func (w *ingestWorkload) op(rec *trace.Recorder) loadgen.Op {
	return func(c, i int) error {
		w.mu.Lock()
		n := w.next
		w.next++
		w.mu.Unlock()
		up := w.uploads[n%len(w.uploads)]
		s := rec.Start("server.roundtrip", -1, n)
		a, err := w.sys.cl.ingest(fmt.Sprintf("%s_u%06d", up.Category, n), up.Bytes)
		rec.End(s)
		if err != nil {
			return err
		}
		if a.NumFrames != w.sz.uploadShape.Frames {
			return fmt.Errorf("ingest %s acked %d frames, sent %d", a.Name, a.NumFrames, w.sz.uploadShape.Frames)
		}
		w.mu.Lock()
		w.acks = append(w.acks, a)
		w.sent += int64(len(up.Bytes))
		w.mu.Unlock()
		return nil
	}
}

func (w *ingestWorkload) measure(window time.Duration, rec *trace.Recorder) measured {
	m := windowOf(loadgen.Run(loadgen.Config{Clients: clients, Duration: window, MaxOps: w.sz.maxOps}, w.op(rec)))
	w.rate = float64(len(m.lat)) / m.wall.Seconds()
	return m
}

func (w *ingestWorkload) idle(n int) measured {
	return windowOf(loadgen.Run(loadgen.Config{Clients: 1, MaxOps: n}, w.op(nil)))
}

func (w *ingestWorkload) finish() (problems []string) {
	fail := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	sys := w.sys
	if err := sys.srv.alive(); err != nil {
		return []string{err.Error()}
	}
	if n := sys.cl.refused.Load(); n > 0 {
		fail("%d requests were refused with 429 or 503", n)
	}
	var err error
	if w.rss, err = peakRSSMB(sys.srv.cmd.Process.Pid); err != nil {
		fail("server peak RSS: %v", err)
	}
	// No drain, no clean close: whatever the server acked must already be
	// in the data file or the WAL.
	if err := sys.srv.stop(syscall.SIGKILL); err != nil {
		fail("%v", err)
	}
	if w.data, w.wal, err = sys.storeBytes(); err != nil {
		fail("store size: %v", err)
	}

	// The restart a crash costs an operator.
	if w.restartMs, err = sys.restart(w.serverBin, w.queries[0].JPEG); err != nil {
		fail("%v", err)
	}

	if err := sys.reopen(); err != nil {
		return append(problems, err.Error())
	}
	store := sys.eng.Store()
	rep, err := vstore.Check(store.DB())
	if err != nil || !rep.Clean() {
		fail("fsck of the store after the kill: %v %v", err, rep)
	}
	for _, a := range w.acks {
		info, ok, err := store.GetVideoInfo(nil, a.VideoID)
		if err != nil || !ok || info.Name != a.Name {
			fail("acked video %d %q is missing after the kill (%v, %v)", a.VideoID, a.Name, info, err)
			continue
		}
		rows, err := store.KeyFramesOfVideo(nil, a.VideoID)
		if err != nil {
			fail("key frames of video %d: %v", a.VideoID, err)
			continue
		}
		got := make([]int64, len(rows))
		for i, r := range rows {
			got[i] = r.ID
		}
		if !slices.Equal(got, a.KeyFrameIDs) {
			fail("video %d holds key frames %v after the kill, ack said %v", a.VideoID, got, a.KeyFrameIDs)
		}
	}
	if n, err := store.CountVideos(nil); err != nil || n != len(w.acks) {
		fail("store holds %d videos after the kill, %d were acked (%v)", n, len(w.acks), err)
	}

	// The videos that went in must also come out: precision@10 by
	// category of held-out frames against what was ingested.
	var sum float64
	for _, q := range w.queries {
		im, err := imaging.DecodeJPEG(bytes.NewReader(q.JPEG))
		if err != nil {
			fail("decode query: %v", err)
			continue
		}
		ms, err := sys.eng.SearchFrame(im, core.SearchOptions{K: topK})
		if err != nil || len(ms) == 0 {
			fail("search on the reopened store: %d matches, %v", len(ms), err)
			continue
		}
		names := make([]string, len(ms))
		for i, m := range ms {
			names[i] = m.VideoName
		}
		sum += precision(names, q.Category)
	}
	w.prec = sum / float64(len(w.queries))
	return problems
}

func (w *ingestWorkload) writeRate() float64 { return w.rate }
func (w *ingestWorkload) quality() float64   { return w.prec }
func (w *ingestWorkload) peakRSS() float64   { return w.rss }

func (w *ingestWorkload) layers(rec *trace.Recorder, n int) (layerReport, error) {
	rep := layerReport{restartMs: w.restartMs}
	rep.refusedShare, rep.brownedShare = w.sys.cl.shares()
	ctx := context.Background()

	// The engine's whole ingest on a scratch engine, for the server's
	// share of a round trip.
	scratch, err := core.Open(filepath.Join(w.sys.dir, "inproc.db"), core.Options{})
	if err != nil {
		return rep, err
	}
	defer scratch.Close()
	if rep.inprocP50, err = timeCalls(n, func(i int) error {
		up := w.uploads[i%len(w.uploads)]
		_, err := scratch.IngestVideoStreamCtx(ctx, fmt.Sprintf("%s_i%06d", up.Category, i), bytes.NewReader(up.Bytes))
		return err
	}); err != nil {
		return rep, err
	}

	// The same ingests call by call on a bare store, for the shares.
	bare, err := catalog.Open(filepath.Join(w.sys.dir, "replay.db"), nil)
	if err != nil {
		return rep, err
	}
	defer bare.DB().Close()
	for i := 0; i < n; i++ {
		up := w.uploads[i%len(w.uploads)]
		if _, err := replayIngest(rec, i, bare, fmt.Sprintf("%s_r%06d", up.Category, i), up.Bytes); err != nil {
			return rep, err
		}
	}

	// core's search classes on what the window ingested.
	qs := make([]querySet, len(w.queries))
	for i, q := range w.queries {
		if qs[i], _, err = replaySearch(nil, i, w.sys.eng, q.JPEG); err != nil {
			return rep, err
		}
	}
	if rep.metrics, err = coreProbes(w.sys.eng, qs, w.sz.probeReps); err != nil {
		return rep, err
	}
	rep.metrics["vstore.data_bytes_per_input_byte"] = float64(w.data) / float64(w.sent)
	rep.metrics["vstore.wal_bytes_per_input_byte"] = float64(w.wal) / float64(w.sent)
	return rep, nil
}
