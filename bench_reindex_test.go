// Benchmarks for the streaming re-index subsystem and the staged blob
// ingest path. Run with -benchmem: the alloc stats are the point —
// BenchmarkIngestSpooledBlob's bytes/op must stay far below the container
// size (the compressed container streams into staged blob pages instead
// of sitting in memory), and BenchmarkReindex shows a full descriptor
// rebuild without re-upload.
package cbvr_test

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"cbvr"
	"cbvr/internal/cvj"
	"cbvr/internal/synthvid"
)

// benchContainer encodes a deterministic clip once per process.
func benchContainer(b *testing.B, frames int) []byte {
	b.Helper()
	v := synthvid.Generate(synthvid.Sports, synthvid.Config{
		Width: 160, Height: 120, Frames: frames, Shots: 5, Seed: 77,
	})
	raw, err := cvj.EncodeBytes(v.Frames, v.FPS, 0)
	if err != nil {
		b.Fatal(err)
	}
	return raw
}

// BenchmarkIngestSpooledBlob measures one full streamed ingest per
// iteration, deleting the video afterwards so the store stays small. The
// container reader is the only place its bytes exist in user space;
// b.ReportMetric exposes the container size so the allocs/op column can
// be read against it.
func BenchmarkIngestSpooledBlob(b *testing.B) {
	raw := benchContainer(b, 48)
	sys, err := cbvr.Open(filepath.Join(b.TempDir(), "spool.db"), cbvr.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	b.ReportAllocs()
	b.ReportMetric(float64(len(raw)), "container-bytes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sys.IngestVideoStreamCtx(context.Background(), fmt.Sprintf("clip_%d", i), bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := sys.DeleteVideo(res.VideoID); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkReindex measures one full ReindexVideoCtx per iteration: stream
// the stored key frames back out, re-extract all seven descriptors and
// swap the rows.
func BenchmarkReindex(b *testing.B) {
	raw := benchContainer(b, 48)
	sys, err := cbvr.Open(filepath.Join(b.TempDir(), "reindex.db"), cbvr.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	res, err := sys.IngestVideoStreamCtx(context.Background(), "clip", bytes.NewReader(raw))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.ReindexVideoCtx(context.Background(), res.VideoID); err != nil {
			b.Fatal(err)
		}
	}
}
