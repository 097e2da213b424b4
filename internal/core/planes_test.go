package core

import (
	"bytes"

	"testing"

	"cbvr/internal/cvj"
	"cbvr/internal/imaging"
	"cbvr/internal/synthvid"

	"cbvr/internal/features"
)

// TestBucketFromPlanesMatchesQueryBucket pins the shared-plane range
// bucket to the naive rescale-then-histogram QueryBucket.
func TestBucketFromPlanesMatchesQueryBucket(t *testing.T) {
	v := genVideo(synthvid.Sports, 11)
	for i, f := range v.Frames {
		if got, want := BucketFromPlanes(features.NewPlanes(f)), QueryBucket(f); got != want {
			t.Fatalf("frame %d: planes bucket %+v, QueryBucket %+v", i, got, want)
		}
	}
}

// checkRescales is the key-frame pipeline's raster invariant: one
// analysis raster per key frame — built when selection emits it, reused by
// extraction — and none for the frames selection drops, so never more
// than one per source frame.
func checkRescales(t *testing.T, what string, rescales int64, frames, keyFrames int) {
	t.Helper()
	if keyFrames < 2 || keyFrames == frames {
		t.Fatalf("degenerate fixture: %d key frames of %d frames", keyFrames, frames)
	}
	if rescales != int64(keyFrames) || rescales > int64(frames) {
		t.Errorf("%s performed %d rescales for %d frames / %d key frames, want %d (one per key frame)",
			what, rescales, frames, keyFrames, keyFrames)
	}
}

// TestIngestRescalesEachSourceFrameOnce verifies the end-to-end streamed
// ingest guarantee with the imaging rescale counter: §4.1 selection reads
// each source frame's signature straight from its decoded planes, and
// only a key frame gets an analysis raster, which extraction reuses with
// the selection-time signature — rescales == key frames, never more than
// one per source frame.
func TestIngestRescalesEachSourceFrameOnce(t *testing.T) {
	eng := openTestEngine(t)
	v := genVideo(synthvid.Movie, 12)
	start := imaging.RescaleCalls()
	res, err := eng.IngestFrames("movie_00", v.Frames, v.FPS)
	if err != nil {
		t.Fatal(err)
	}
	checkRescales(t, "ingest", imaging.RescaleCalls()-start, res.NumFrames, len(res.KeyFrameIDs))
}

// TestIngestStreamRescalesEachSourceFrameOnce pins the same invariant on
// the reader-based entry point.
func TestIngestStreamRescalesEachSourceFrameOnce(t *testing.T) {
	eng := openTestEngine(t)
	v := genVideo(synthvid.Cartoon, 15)
	container, err := cvj.EncodeBytes(v.Frames, v.FPS, 0)
	if err != nil {
		t.Fatal(err)
	}
	start := imaging.RescaleCalls()
	res, err := eng.IngestVideoStream("cartoon_00", bytes.NewReader(container))
	if err != nil {
		t.Fatal(err)
	}
	checkRescales(t, "streamed ingest", imaging.RescaleCalls()-start, res.NumFrames, len(res.KeyFrameIDs))
}

// TestSearchFrameSingleRescale checks the query path: one rescale covers
// both the query descriptors and the query bucket.
func TestSearchFrameSingleRescale(t *testing.T) {
	eng := openTestEngine(t)
	ingest(t, eng, "news_00", synthvid.News, 13)
	q := genVideo(synthvid.News, 14).Frames[0]
	if _, err := eng.SearchFrame(q, SearchOptions{K: 3}); err != nil {
		t.Fatal(err)
	}
	start := imaging.RescaleCalls()
	if _, err := eng.SearchFrame(q, SearchOptions{K: 3}); err != nil {
		t.Fatal(err)
	}
	if n := imaging.RescaleCalls() - start; n != 1 {
		t.Errorf("warm SearchFrame performed %d rescales, want exactly 1", n)
	}
}
