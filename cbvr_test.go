package cbvr_test

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"cbvr"
)

func openSystem(t *testing.T) *cbvr.System {
	t.Helper()
	sys, err := cbvr.Open(filepath.Join(t.TempDir(), "api.db"), cbvr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys
}

func TestPublicAPIIngestAndSearch(t *testing.T) {
	sys := openSystem(t)
	name, frames, fps := cbvr.GenerateVideo(cbvr.CategorySports, cbvr.VideoConfig{
		Width: 96, Height: 72, Frames: 12, Shots: 2, Seed: 5,
	})
	if name == "" || fps <= 0 || len(frames) != 12 {
		t.Fatalf("generator: name=%q fps=%d frames=%d", name, fps, len(frames))
	}
	res, err := sys.IngestFramesCtx(context.Background(), name, frames, fps)
	if err != nil {
		t.Fatal(err)
	}
	matches, err := sys.SearchFrame(frames[0], cbvr.SearchOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 || matches[0].VideoID != res.VideoID {
		t.Errorf("self search failed: %+v", matches)
	}
}

func TestPublicAPIVideoRoundTrip(t *testing.T) {
	_, frames, fps := cbvr.GenerateVideo(cbvr.CategoryCartoon, cbvr.VideoConfig{
		Width: 64, Height: 48, Frames: 4, Shots: 1, Seed: 6,
	})
	var buf bytes.Buffer
	if err := cbvr.EncodeVideo(&buf, frames, fps, 0); err != nil {
		t.Fatal(err)
	}
	gotFPS, gotFrames, err := cbvr.DecodeVideo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotFPS != fps || len(gotFrames) != len(frames) {
		t.Errorf("round trip: fps=%d frames=%d", gotFPS, len(gotFrames))
	}
}

func TestPublicAPIIngestContainer(t *testing.T) {
	sys := openSystem(t)
	_, frames, fps := cbvr.GenerateVideo(cbvr.CategoryNews, cbvr.VideoConfig{
		Width: 96, Height: 72, Frames: 8, Shots: 2, Seed: 7,
	})
	var buf bytes.Buffer
	if err := cbvr.EncodeVideo(&buf, frames, fps, 0); err != nil {
		t.Fatal(err)
	}
	res, err := sys.IngestVideoStreamCtx(context.Background(), "news-clip", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumFrames != 8 {
		t.Errorf("frames = %d", res.NumFrames)
	}
	if err := sys.DeleteVideo(res.VideoID); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIDescribeFrame(t *testing.T) {
	_, frames, _ := cbvr.GenerateVideo(cbvr.CategoryMovie, cbvr.VideoConfig{
		Width: 96, Height: 72, Frames: 2, Shots: 1, Seed: 8,
	})
	strs, min, max := cbvr.DescribeFrame(frames[0])
	if len(strs) != cbvr.NumFeatures {
		t.Fatalf("described %d features", len(strs))
	}
	if min < 0 || max > 255 || min > max {
		t.Errorf("range [%d,%d]", min, max)
	}
	if !strings.HasPrefix(strs[cbvr.FeatureHistogram], "RGB 256 ") {
		t.Error("histogram format wrong")
	}
	if !strings.HasPrefix(strs[cbvr.FeatureGabor], "gabor 60 ") {
		t.Error("gabor format wrong")
	}
	if !strings.HasPrefix(strs[cbvr.FeatureNaive], "NaiveVector java.awt.Color[") {
		t.Error("naive format wrong")
	}
}

func TestPublicAPISearchVideo(t *testing.T) {
	sys := openSystem(t)
	cfg := cbvr.VideoConfig{Width: 96, Height: 72, Frames: 10, Shots: 2}
	for _, cat := range []cbvr.Category{cbvr.CategorySports, cbvr.CategoryNature} {
		cfg.Seed = int64(cat) + 20
		name, frames, fps := cbvr.GenerateVideo(cat, cfg)
		if _, err := sys.IngestFramesCtx(context.Background(), name, frames, fps); err != nil {
			t.Fatal(err)
		}
	}
	cfg.Seed = int64(cbvr.CategorySports) + 20
	_, q, _ := cbvr.GenerateVideo(cbvr.CategorySports, cfg)
	matches, err := sys.SearchVideoCtx(context.Background(), q, cbvr.SearchOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 2 || !strings.HasPrefix(matches[0].VideoName, "sports") {
		t.Errorf("video search: %+v", matches)
	}
}

func TestPublicAPICorpusCoverage(t *testing.T) {
	corpus := cbvr.GenerateCorpus(1, cbvr.VideoConfig{Width: 64, Height: 48, Frames: 4, Shots: 1, Seed: 9})
	if len(corpus) != 6 {
		t.Fatalf("corpus size %d", len(corpus))
	}
	for i, v := range corpus {
		if want := cbvr.Category(i); v.Category != want {
			t.Errorf("corpus[%d] is %s, want %s", i, v.Category, want)
		}
		if len(v.Frames) != 4 {
			t.Errorf("%s has %d frames", v.Name, len(v.Frames))
		}
	}
}

func TestPublicAPIFromJPEG(t *testing.T) {
	im := cbvr.NewImage(20, 10)
	var buf bytes.Buffer
	if err := im.EncodeJPEG(&buf, cbvr.DefaultJPEGQuality); err != nil {
		t.Fatal(err)
	}
	got, err := cbvr.FromJPEG(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != 20 || got.H != 10 {
		t.Errorf("dims %dx%d", got.W, got.H)
	}
}

// TestPublicAPIIngestVideoStream exercises the reader-based ingest entry
// point end to end: encode a clip, stream it in and search it back.
func TestPublicAPIIngestVideoStream(t *testing.T) {
	sys := openSystem(t)
	_, frames, fps := cbvr.GenerateVideo(cbvr.CategoryNews, cbvr.VideoConfig{
		Width: 96, Height: 72, Frames: 10, Shots: 2, Seed: 7,
	})
	var buf bytes.Buffer
	if err := cbvr.EncodeVideo(&buf, frames, fps, 0); err != nil {
		t.Fatal(err)
	}
	res, err := sys.IngestVideoStreamCtx(context.Background(), "streamed", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumFrames != len(frames) || len(res.KeyFrameIDs) == 0 {
		t.Fatalf("result: %+v", res)
	}
	matches, err := sys.SearchFrame(frames[0], cbvr.SearchOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].VideoID != res.VideoID {
		t.Errorf("self search after streamed ingest: %+v", matches)
	}
}
