package main

import (
	"bytes"
	"fmt"
	"time"

	"cbvr/bench/trace"
	"cbvr/internal/catalog"
	"cbvr/internal/core"
	"cbvr/internal/cvj"
	"cbvr/internal/features"
	"cbvr/internal/imaging"
	"cbvr/internal/keyframe"
	"cbvr/internal/rangeindex"
	"cbvr/internal/vstore"
)

// The replays below run one operation in-process the way the engine does,
// but spelled out call by call so that each call into a layer sits in its
// own span. The program itself is not instrumented: the spans are recorded
// here, around its public functions. Span names are "<layer>.<call>", and
// the layer is what the per-layer shares are summed by.

// querySet is a query after extraction: what core's search takes.
type querySet struct {
	set    *features.Set
	bucket rangeindex.Range
}

// replaySearch runs one query-by-frame search: decode, planes, the seven
// extractions, pack, search.
func replaySearch(rec *trace.Recorder, opID int, eng *core.Engine, jpeg []byte) (querySet, []core.Match, error) {
	op := rec.Start("core.search_frame", -1, opID)
	defer rec.End(op)

	s := rec.Start("imaging.decode_jpeg", op, opID)
	im, err := imaging.DecodeJPEG(bytes.NewReader(jpeg))
	rec.End(s)
	if err != nil {
		return querySet{}, nil, err
	}
	s = rec.Start("features.planes", op, opID)
	p := features.AcquirePlanes(im)
	rec.End(s)
	defer p.Release()

	q := querySet{set: &features.Set{}}
	for _, kind := range features.AllKinds() {
		s = rec.Start("features.extract_"+kind.String(), op, opID)
		d, err := features.ExtractWith(kind, p)
		rec.End(s)
		if err != nil {
			return querySet{}, nil, err
		}
		if err := q.set.Put(d); err != nil {
			return querySet{}, nil, err
		}
	}
	q.bucket = core.BucketFromPlanes(p)

	// SearchWithSet packs the query itself; the separate call only puts a
	// number on the packing.
	s = rec.Start("core.pack_query", op, opID)
	eng.PackQuery(q.set, features.AllKinds())
	rec.End(s)

	s = rec.Start("core.search_with_set", op, opID)
	ms, err := eng.SearchWithSet(q.set, q.bucket, core.SearchOptions{K: topK})
	rec.End(s)
	return q, ms, err
}

// replaySetSearch runs one descriptor-space search.
func replaySetSearch(rec *trace.Recorder, opID int, eng *core.Engine, q querySet, opt core.SearchOptions) error {
	op := rec.Start("core.search_set", -1, opID)
	defer rec.End(op)
	kinds := opt.Kinds
	if len(kinds) == 0 {
		kinds = features.AllKinds()
	}
	s := rec.Start("core.pack_query", op, opID)
	eng.PackQuery(q.set, kinds)
	rec.End(s)
	s = rec.Start("core.search_with_set", op, opID)
	_, err := eng.SearchWithSet(q.set, q.bucket, opt)
	rec.End(s)
	return err
}

// tracedFrames feeds key-frame selection from a container the way the
// engine's streamed ingest does: decode a record, append its bytes to the
// staged container blob, rescale to the analysis raster.
type tracedFrames struct {
	rec        *trace.Recorder
	parent, op int
	cr         *cvj.Reader
	cw         *cvj.Writer
	jpeg       []byte
	frames     int
	blobTime   time.Duration
}

func (t *tracedFrames) Next() (*imaging.Image, error) {
	s := t.rec.Start("cvj.decode", t.parent, t.op)
	f, err := t.cr.NextFrame()
	t.rec.End(s)
	if err != nil {
		return nil, err // io.EOF ends selection
	}
	t.frames++
	s = t.rec.Start("vstore.blob_write", t.parent, t.op)
	t0 := time.Now()
	err = t.cw.WriteJPEG(f.JPEG)
	t.blobTime += time.Since(t0)
	t.rec.End(s)
	if err != nil {
		return nil, err
	}
	t.jpeg = f.JPEG
	s = t.rec.Start("imaging.rescale", t.parent, t.op)
	defer t.rec.End(s)
	return f.Image.Rescale(features.AnalysisSize, features.AnalysisSize), nil
}

// sealBlobs closes the staged container blob and spools the key-frame-only
// stream as a second staged blob.
func sealBlobs(db *vstore.DB, cw *cvj.Writer, vw *vstore.BlobWriter, jpegs [][]byte, fps int) (video vstore.BlobRef, sw *vstore.BlobWriter, stream vstore.BlobRef, err error) {
	if err = cw.Close(); err != nil {
		return
	}
	if video, err = vw.Close(); err != nil {
		return
	}
	if sw, err = db.NewStagedBlobWriter(); err != nil {
		return
	}
	if err = cvj.EncodeRaw(sw, jpegs, fps); err != nil {
		return
	}
	stream, err = sw.Close()
	return
}

// ingestStats is what one replayed ingest counted.
type ingestStats struct {
	videoID     int64
	frames      int
	keyFrames   int
	blobBytes   int64
	blobSeconds float64
}

// replayIngest runs one streamed ingest against a catalog store: decode,
// select, extract, spool the container and the key-frame stream as staged
// blobs, insert the rows, commit. It stops short of publishing to a
// search cache, which a bare store does not have.
func replayIngest(rec *trace.Recorder, opID int, store *catalog.Store, name string, container []byte) (ingestStats, error) {
	var st ingestStats
	op := rec.Start("core.ingest_stream", -1, opID)
	defer rec.End(op)

	cr, err := cvj.NewReader(bytes.NewReader(container))
	if err != nil {
		return st, err
	}
	db := store.DB()
	vw, err := db.NewStagedBlobWriter()
	if err != nil {
		return st, err
	}
	defer vw.Discard()
	cw, err := cvj.NewWriter(vw, cr.FPS())
	if err != nil {
		return st, err
	}

	type work struct {
		index  int
		jpeg   []byte
		set    *features.Set
		bucket rangeindex.Range
	}
	var works []*work
	sel := rec.Start("keyframe.select", op, opID)
	src := &tracedFrames{rec: rec, parent: sel, op: opID, cr: cr, cw: cw}
	err = keyframe.Extractor{}.ExtractStream(src, func(k *keyframe.KeyFrame) error {
		// The engine hands extraction to a worker pool beside the decode
		// loop; here it runs inside selection's callback, so it is
		// selection's child and comes off selection's self time.
		s := rec.Start("features.extract_all", sel, opID)
		p := features.AcquirePlanes(k.Image)
		w := &work{index: k.Index, jpeg: src.jpeg, set: p.ExtractAllWithNaive(k.Signature), bucket: core.BucketFromPlanes(p)}
		p.Release()
		rec.End(s)
		works = append(works, w)
		return nil
	})
	rec.End(sel)
	if err != nil {
		return st, err
	}

	jpegs := make([][]byte, len(works))
	for i, w := range works {
		jpegs[i] = w.jpeg
	}
	s := rec.Start("vstore.blob_write", op, opID)
	t0 := time.Now()
	videoRef, sw, streamRef, err := sealBlobs(db, cw, vw, jpegs, cr.FPS())
	src.blobTime += time.Since(t0)
	rec.End(s)
	if sw != nil {
		defer sw.Discard()
	}
	if err != nil {
		return st, err
	}

	s = rec.Start("vstore.commit", op, opID)
	defer rec.End(s)
	tx, err := store.Begin()
	if err != nil {
		return st, err
	}
	if err := tx.AdoptStaged(vw); err != nil {
		tx.Abort()
		return st, err
	}
	if err := tx.AdoptStaged(sw); err != nil {
		tx.Abort()
		return st, err
	}
	v := &catalog.Video{Name: name, VideoRef: videoRef, StreamRef: streamRef}
	if _, err := store.InsertVideo(tx, v); err != nil {
		tx.Abort()
		return st, err
	}
	for _, w := range works {
		row := &catalog.KeyFrame{
			Name:  fmt.Sprintf("%s#%04d", name, w.index),
			Image: w.jpeg,
			Min:   w.bucket.Min, Max: w.bucket.Max,
			SCH:          w.set.Histogram.String(),
			GLCM:         w.set.GLCM.String(),
			Gabor:        w.set.Gabor.String(),
			Tamura:       w.set.Tamura.String(),
			ACC:          w.set.Correlogram.String(),
			Naive:        w.set.Naive.String(),
			Regions:      w.set.Regions.String(),
			MajorRegions: w.set.Regions.Major,
			VideoID:      v.ID,
			FrameIndex:   w.index,
		}
		if _, err := store.InsertKeyFrame(tx, row); err != nil {
			tx.Abort()
			return st, err
		}
	}
	if err := tx.Commit(); err != nil {
		return st, err
	}
	return ingestStats{
		videoID:     v.ID,
		frames:      src.frames,
		keyFrames:   len(works),
		blobBytes:   int64(len(container)),
		blobSeconds: src.blobTime.Seconds(),
	}, nil
}
