package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"cbvr/internal/cvj"
	"cbvr/internal/features"
	"cbvr/internal/imaging"
	"cbvr/internal/keyframe"
	"cbvr/internal/synthvid"
)

// IngestVideoReference is the in-memory reference ingest: decode
// every frame up front, select key frames in batch, then extract features
// sequentially from the full-resolution frames with fresh (unpooled)
// analysis planes. It stages the buffered container and commits through
// commitIngest, the streamed pipeline's own commit path, so it produces
// bit-identical stored rows (TestStreamedIngestBitIdenticalRows); it is
// the pipeline's equivalence and benchmark baseline.
func (e *Engine) IngestVideoReference(name string, container []byte) (*IngestResult, error) {
	fail := func(err error) (*IngestResult, error) {
		return nil, fmt.Errorf("core: ingest %q: %w", name, err)
	}
	if strings.TrimSpace(name) == "" {
		return fail(ErrEmptyName)
	}
	cr, err := cvj.NewReader(bytes.NewReader(container))
	if err != nil {
		return fail(err)
	}
	var frames []*imaging.Image
	var jpegs [][]byte
	for {
		f, err := cr.NextFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fail(err)
		}
		frames = append(frames, f.Image)
		jpegs = append(jpegs, f.JPEG)
	}
	kex := keyframe.Extractor{Threshold: e.opts.KeyframeThreshold}
	kfs, err := kex.Extract(frames)
	if err != nil {
		return fail(err)
	}
	jobs := make([]*kfJob, len(kfs))
	for i, k := range kfs {
		planes := features.NewPlanes(k.Image)
		jobs[i] = &kfJob{
			frameIndex: k.Index,
			jpeg:       jpegs[k.Index],
			set:        planes.ExtractAll(),
			bucket:     BucketFromPlanes(planes),
		}
	}
	vw, err := e.store.DB().NewStagedBlobWriter()
	if err != nil {
		return fail(err)
	}
	defer vw.Discard()
	if _, err := vw.Write(container); err != nil {
		return fail(err)
	}
	return e.commitIngest(context.Background(), name, vw, cr.FPS(), len(frames), jobs)
}

// benchIngest runs ingest over a camera-resolution container, b.N times
// into one fresh engine.
func benchIngest(b *testing.B, ingest func(e *Engine, name string, container []byte) (*IngestResult, error)) {
	eng, err := Open(filepath.Join(b.TempDir(), "ingest.db"), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	v := synthvid.Generate(synthvid.Sports, synthvid.Config{
		Width: 320, Height: 240, Frames: 24, Shots: 4, Seed: 5,
	})
	container, err := cvj.EncodeBytes(v.Frames, v.FPS, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ingest(eng, fmt.Sprintf("clip_%d", i), container)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(res.KeyFrameIDs)), "keyframes")
		}
	}
}

// BenchmarkPipeline_IngestStreamed measures the streamed ingest path
// (decode/select/extract overlap, pooled planes, JPEG-record reuse). Run
// with -benchmem and compare against
// BenchmarkPipeline_IngestBufferedReference: the streamed path holds only
// key frames, reuses the selection-time signature and pooled rasters, and
// never re-encodes JPEGs, so both bytes/op and time/op drop.
func BenchmarkPipeline_IngestStreamed(b *testing.B) {
	benchIngest(b, func(e *Engine, name string, container []byte) (*IngestResult, error) {
		return e.IngestVideoStreamCtx(context.Background(), name, bytes.NewReader(container))
	})
}

// BenchmarkPipeline_IngestBufferedReference is the allocation and speed
// baseline: the reference ingest (decode everything, batch selection,
// sequential unpooled extraction) over the identical container.
func BenchmarkPipeline_IngestBufferedReference(b *testing.B) {
	benchIngest(b, (*Engine).IngestVideoReference)
}
