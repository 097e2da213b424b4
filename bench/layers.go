package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"time"

	"cbvr/bench/loadgen"
	"cbvr/bench/trace"
	"cbvr/internal/catalog"
	"cbvr/internal/core"
	"cbvr/internal/features"
	"cbvr/internal/imaging"
	"cbvr/internal/vstore"
)

// layerOf is the layer a span belongs to: the part of its name before the
// first dot, which is the package name.
func layerOf(span string) string {
	layer, _, _ := strings.Cut(span, ".")
	return layer
}

// shareLayers are the layers an in-process operation can spend time in.
var shareLayers = []string{"imaging", "cvj", "keyframe", "features", "vstore", "core"}

// layerShares turns the spans of replayed operations into each layer's
// share of their total self time. A layer no span names gets 0: that is
// the evidence that a workload does not touch it.
func layerShares(spans []trace.Span) map[string]float64 {
	byLayer := make(map[string]time.Duration)
	for name, d := range trace.SelfTimes(spans) {
		byLayer[layerOf(name)] += d
	}
	// The round-trip spans of the traced pass are of no layer in the
	// list: they time the whole system from outside.
	var total time.Duration
	for _, l := range shareLayers {
		total += byLayer[l]
	}
	out := make(map[string]float64)
	for _, l := range shareLayers {
		out["share."+l] = 0
		if total > 0 {
			out["share."+l] = float64(byLayer[l]) / float64(total)
		}
	}
	return out
}

// spanMedians is the median duration in ms of the spans of each name.
func spanMedians(spans []trace.Span) map[string]float64 {
	by := make(map[string][]time.Duration)
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], time.Duration(s.End-s.Start))
	}
	out := make(map[string]float64, len(by))
	for name, ds := range by {
		out[name] = medianMillis(ds)
	}
	return out
}

// timeCalls is the median time of n calls of fn, in ms.
func timeCalls(n int, fn func(i int) error) (float64, error) {
	ds := make([]time.Duration, n)
	for i := range ds {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		ds[i] = time.Since(t0)
	}
	return medianMillis(ds), nil
}

// coreProbes times core's search entry points class by class on the
// engine the workload searched, with the workload's own queries, and
// sums the work counters of the fused-RRF class, which repeat exactly.
func coreProbes(eng *core.Engine, qs []querySet, reps int) (map[string]float64, error) {
	out := make(map[string]float64)
	all := features.AllKinds()
	q := func(i int) querySet { return qs[i%len(qs)] }
	var err error

	if out["core.pack_query_ms"], err = timeCalls(reps, func(i int) error {
		eng.PackQuery(q(i).set, all)
		return nil
	}); err != nil {
		return nil, err
	}

	rows, err := eng.CacheSize()
	if err != nil {
		return nil, err
	}
	dist := make([]float64, len(all)*rows)
	if out["core.scan_arena_ms"], err = timeCalls(reps, func(i int) error {
		_, err := eng.ScanArenaInto(eng.PackQuery(q(i).set, all), dist)
		return err
	}); err != nil {
		return nil, err
	}

	var sum core.SearchStats
	if out["core.fused_rrf_ms"], err = timeCalls(reps, func(i int) error {
		_, st, err := eng.SearchWithSetStats(q(i).set, q(i).bucket, core.SearchOptions{K: topK})
		sum.RowEvals += st.RowEvals
		sum.CellEvals += st.CellEvals
		sum.BaseRows += st.BaseRows
		sum.Kinds = st.Kinds
		sum.PrunedShards += st.PrunedShards
		sum.ExactShards += st.ExactShards
		return err
	}); err != nil {
		return nil, err
	}
	out["core.row_evals_per_query"] = float64(sum.RowEvals) / float64(reps)
	out["core.cell_evals_per_query"] = float64(sum.CellEvals) / float64(reps)
	out["core.eval_ratio"] = sum.EvalRatio()
	out["core.pruned_shard_share"] = 0
	if n := sum.PrunedShards + sum.ExactShards; n > 0 {
		out["core.pruned_shard_share"] = float64(sum.PrunedShards) / float64(n)
	}

	classes := []struct {
		metric string
		opt    func(i int) core.SearchOptions
	}{
		{"core.single_kind_ms", func(i int) core.SearchOptions {
			return core.SearchOptions{K: topK, Kinds: []features.Kind{all[i%len(all)]}}
		}},
		{"core.fused_minmax_ms", func(int) core.SearchOptions {
			return core.SearchOptions{K: topK, Fusion: core.FusionMinMax}
		}},
		{"core.exact_sweep_ms", func(int) core.SearchOptions {
			return core.SearchOptions{K: topK, NoCellPruning: true}
		}},
	}
	for _, c := range classes {
		if out[c.metric], err = timeCalls(reps, func(i int) error {
			_, _, err := eng.SearchWithSetStats(q(i).set, q(i).bucket, c.opt(i))
			return err
		}); err != nil {
			return nil, err
		}
	}

	// The sweep ScanArenaInto times, taken through to a ranking: every row,
	// on the calling goroutine. What it costs beyond the scan is fusion and
	// top-K.
	serial, err := timeCalls(reps, func(i int) error {
		_, _, err := eng.SearchWithSetStats(q(i).set, q(i).bucket,
			core.SearchOptions{K: topK, NoPruning: true, NoCellPruning: true, Workers: 1})
		return err
	})
	if err != nil {
		return nil, err
	}
	out["core.fuse_residual_ms"] = serial - out["core.scan_arena_ms"]
	return out, nil
}

// pixelProbes measures every layer of the pixel pipeline on scratch stores,
// with the given query images and containers. It runs on every workload,
// also on those that never touch pixels: these metrics say how fast a layer
// is at this commit, and the share.* metrics say how much a workload uses
// it.
func pixelProbes(queries []loadgen.QueryFrame, containers []loadgen.Container) (map[string]float64, error) {
	dir, err := tempDir("probe")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)

	// The engine's own entry points, whole.
	eng, err := core.Open(filepath.Join(dir, "engine.db"), core.Options{})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	ctx := context.Background()
	ids := make([]int64, len(containers))
	frames, keyFrames := 0, 0
	rescales := imaging.RescaleCalls()
	if out["core.ingest_inproc_ms"], err = timeCalls(len(containers), func(i int) error {
		res, err := eng.IngestVideoStreamCtx(ctx, containers[i].Name, bytes.NewReader(containers[i].Bytes))
		if err != nil {
			return err
		}
		ids[i] = res.VideoID
		frames += res.NumFrames
		keyFrames += len(res.KeyFrameIDs)
		return nil
	}); err != nil {
		return nil, err
	}
	out["imaging.rescale_calls_per_frame"] = float64(imaging.RescaleCalls()-rescales) / float64(frames)
	out["keyframe.keyframes_per_video"] = float64(keyFrames) / float64(len(containers))

	if out["core.reindex_inproc_ms"], err = timeCalls(len(ids), func(i int) error {
		_, err := eng.ReindexVideoCtx(ctx, ids[i])
		return err
	}); err != nil {
		return nil, err
	}
	images := make([]*imaging.Image, len(queries))
	for i, q := range queries {
		if images[i], err = imaging.DecodeJPEG(bytes.NewReader(q.JPEG)); err != nil {
			return nil, err
		}
	}
	if out["core.search_frame_inproc_ms"], err = timeCalls(len(images), func(i int) error {
		_, err := eng.SearchFrameCtx(ctx, images[i], core.SearchOptions{K: topK})
		return err
	}); err != nil {
		return nil, err
	}
	if out["features.extract_all_ms"], err = timeCalls(len(images), func(i int) error {
		p := features.AcquirePlanes(images[i])
		p.ExtractAll()
		p.Release()
		return nil
	}); err != nil {
		return nil, err
	}

	// The same search, call by call.
	rec := trace.New()
	for i, q := range queries {
		if _, _, err := replaySearch(rec, i, eng, q.JPEG); err != nil {
			return nil, err
		}
	}
	med := spanMedians(rec.Spans())
	out["imaging.decode_jpeg_ms"] = med["imaging.decode_jpeg"]
	out["features.planes_ms"] = med["features.planes"]
	for _, kind := range features.AllKinds() {
		out["features.extract_"+kind.String()+"_ms"] = med["features.extract_"+kind.String()]
	}

	if out["core.delete_inproc_ms"], err = timeCalls(len(ids), func(i int) error {
		return eng.DeleteVideo(ids[i])
	}); err != nil {
		return nil, err
	}

	// The same ingest, call by call, on a bare store; once more without
	// fsync to split the commit into its log write and its flush.
	sync, err := ingestProbe(filepath.Join(dir, "sync.db"), nil, containers)
	if err != nil {
		return nil, err
	}
	nosync, err := ingestProbe(filepath.Join(dir, "nosync.db"), &vstore.Options{NoWALSync: true}, containers)
	if err != nil {
		return nil, err
	}
	for k, v := range sync {
		out[k] = v
	}
	out["vstore.commit_nosync_ms"] = nosync["vstore.commit_ms"]
	return out, nil
}

// ingestProbe replays the containers as ingests on a fresh catalog store
// and reads the cvj, keyframe and vstore numbers off the spans.
func ingestProbe(path string, opts *vstore.Options, containers []loadgen.Container) (map[string]float64, error) {
	store, err := catalog.Open(path, opts)
	if err != nil {
		return nil, err
	}
	defer store.DB().Close()
	rec := trace.New()
	var total ingestStats
	ids := make([]int64, len(containers))
	for i, c := range containers {
		st, err := replayIngest(rec, i, store, c.Name, c.Bytes)
		if err != nil {
			return nil, fmt.Errorf("replay ingest %s: %w", c.Name, err)
		}
		ids[i] = st.videoID
		total.frames += st.frames
		total.blobBytes += st.blobBytes
		total.blobSeconds += st.blobSeconds
	}
	spans := rec.Spans()
	med := spanMedians(spans)
	out := map[string]float64{
		"cvj.decode_ms_per_frame":      med["cvj.decode"],
		"keyframe.select_ms_per_frame": loadgen.Millis(trace.SelfTimes(spans)["keyframe.select"]) / float64(total.frames),
		"vstore.commit_ms":             med["vstore.commit"],
		"vstore.blob_write_mb_per_s":   float64(total.blobBytes) / 1e6 / total.blobSeconds,
	}

	var read int64
	t0 := time.Now()
	for _, id := range ids {
		ref, _, ok, err := store.VideoRefs(nil, id)
		if err != nil || !ok {
			return nil, fmt.Errorf("video %d has no blob reference: %v", id, err)
		}
		n, err := io.Copy(io.Discard, store.DB().NewBlobReader(nil, ref))
		if err != nil {
			return nil, err
		}
		read += n
	}
	if read != total.blobBytes {
		return nil, fmt.Errorf("read %d blob bytes back, wrote %d", read, total.blobBytes)
	}
	out["vstore.blob_read_mb_per_s"] = float64(read) / 1e6 / time.Since(t0).Seconds()

	t0 = time.Now()
	rep, err := vstore.Check(store.DB())
	if err != nil {
		return nil, err
	}
	if !rep.Clean() {
		return nil, fmt.Errorf("probe store fails fsck: %v", rep.Problems)
	}
	out["vstore.check_ms"] = loadgen.Millis(time.Since(t0))
	return out, nil
}
