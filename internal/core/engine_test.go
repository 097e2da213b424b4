package core

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"cbvr/internal/catalog"
	"cbvr/internal/cvj"
	"cbvr/internal/features"
	"cbvr/internal/synthvid"
)

func openTestEngine(t *testing.T) *Engine {
	t.Helper()
	eng, err := Open(filepath.Join(t.TempDir(), "e.db"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

func genVideo(cat synthvid.Category, seed int64) *synthvid.Video {
	return synthvid.Generate(cat, synthvid.Config{
		Width: 96, Height: 72, Frames: 16, Shots: 3, Seed: seed,
	})
}

func ingest(t *testing.T, eng *Engine, name string, cat synthvid.Category, seed int64) *IngestResult {
	t.Helper()
	v := genVideo(cat, seed)
	res, err := eng.IngestFramesCtx(context.Background(), name, v.Frames, v.FPS)
	if err != nil {
		t.Fatalf("ingest %s: %v", name, err)
	}
	return res
}

func TestIngestStoresEverything(t *testing.T) {
	eng := openTestEngine(t)
	res := ingest(t, eng, "cartoon_00", synthvid.Cartoon, 3)
	if res.VideoID == 0 || res.NumFrames != 16 || len(res.KeyFrameIDs) == 0 {
		t.Fatalf("result: %+v", res)
	}
	// Rows landed in the catalog with parsable features.
	kfs, err := eng.Store().KeyFramesOfVideo(nil, res.VideoID)
	if err != nil {
		t.Fatal(err)
	}
	if len(kfs) != len(res.KeyFrameIDs) {
		t.Fatalf("stored %d frames, result says %d", len(kfs), len(res.KeyFrameIDs))
	}
	for _, kf := range kfs {
		for _, s := range []struct {
			kind features.Kind
			str  string
		}{
			{features.KindHistogram, kf.SCH},
			{features.KindGLCM, kf.GLCM},
			{features.KindGabor, kf.Gabor},
			{features.KindTamura, kf.Tamura},
			{features.KindCorrelogram, kf.ACC},
			{features.KindNaive, kf.Naive},
			{features.KindRegions, kf.Regions},
		} {
			if _, err := features.Parse(s.kind, s.str); err != nil {
				t.Errorf("frame %d %v column unparsable: %v", kf.ID, s.kind, err)
			}
		}
		if kf.Min < 0 || kf.Max > 255 || kf.Min > kf.Max {
			t.Errorf("frame %d bucket [%d,%d]", kf.ID, kf.Min, kf.Max)
		}
		img, ok, err := eng.Store().KeyFrameImage(nil, kf.ID)
		if err != nil || !ok || len(img) == 0 {
			t.Errorf("frame %d image missing", kf.ID)
		}
	}
	// The stored video container must decode back to all frames.
	r, ok, err := eng.Store().OpenContainer(res.VideoID, catalog.VideoContainer)
	if err != nil || !ok {
		t.Fatal("video blob missing")
	}
	v, err := cvj.Decode(r)
	if err != nil {
		t.Fatalf("stored container: %v", err)
	}
	if len(v.Frames) != res.NumFrames {
		t.Fatalf("stored container decodes to %d frames, want %d", len(v.Frames), res.NumFrames)
	}
}

// TestIngestRecordsDoStore checks that VIDEO_STORE.DOSTORE holds the
// commit time of the ingest, not a fixed date.
func TestIngestRecordsDoStore(t *testing.T) {
	eng := openTestEngine(t)
	before := time.Now()
	res := ingest(t, eng, "news_00", synthvid.News, 4)
	after := time.Now()
	info, ok, err := eng.Store().GetVideoInfo(nil, res.VideoID)
	if err != nil || !ok {
		t.Fatalf("video %d: ok=%v err=%v", res.VideoID, ok, err)
	}
	if info.DoStore.Before(before) || info.DoStore.After(after) {
		t.Errorf("DOSTORE %v, want within [%v, %v]", info.DoStore, before.UTC(), after.UTC())
	}
}

func TestSearchFindsOwnKeyFrame(t *testing.T) {
	eng := openTestEngine(t)
	res := ingest(t, eng, "sports_00", synthvid.Sports, 11)
	ingest(t, eng, "news_00", synthvid.News, 12)
	ingest(t, eng, "nature_00", synthvid.Nature, 13)

	// Query with an exact stored key frame: it must rank first with
	// distance ~0.
	v := genVideo(synthvid.Sports, 11)
	kfs, err := eng.Store().KeyFramesOfVideo(nil, res.VideoID)
	if err != nil || len(kfs) == 0 {
		t.Fatal(err)
	}
	query := v.Frames[kfs[0].FrameIndex]
	matches, err := eng.SearchFrame(query, SearchOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no matches")
	}
	if matches[0].KeyFrameID != kfs[0].ID {
		t.Errorf("top match %d, want %d (self)", matches[0].KeyFrameID, kfs[0].ID)
	}
	if matches[0].VideoName != "sports_00" {
		t.Errorf("top match video %q", matches[0].VideoName)
	}
	for i := 1; i < len(matches); i++ {
		if matches[i].Distance < matches[i-1].Distance {
			t.Error("matches not sorted by distance")
		}
	}
}

func TestSearchSingleFeatureSubset(t *testing.T) {
	eng := openTestEngine(t)
	ingest(t, eng, "cartoon_00", synthvid.Cartoon, 21)
	v := genVideo(synthvid.Cartoon, 22)
	for _, kind := range features.AllKinds() {
		m, err := eng.SearchFrame(v.Frames[0], SearchOptions{K: 3, Kinds: []features.Kind{kind}})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if len(m) == 0 {
			t.Errorf("%v: no matches", kind)
		}
	}
}

func TestSearchPruningSubsetOfFull(t *testing.T) {
	eng := openTestEngine(t)
	for i := int64(0); i < 4; i++ {
		ingest(t, eng, "movie", synthvid.Movie, 30+i)
		ingest(t, eng, "elearn", synthvid.Elearning, 40+i)
	}
	v := genVideo(synthvid.Movie, 99)
	full, err := eng.SearchFrame(v.Frames[2], SearchOptions{NoPruning: true})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := eng.SearchFrame(v.Frames[2], SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned) > len(full) {
		t.Errorf("pruned %d > full %d", len(pruned), len(full))
	}
	inFull := make(map[int64]bool)
	for _, m := range full {
		inFull[m.KeyFrameID] = true
	}
	for _, m := range pruned {
		if !inFull[m.KeyFrameID] {
			t.Errorf("pruned result %d not in full scan", m.KeyFrameID)
		}
	}
}

func TestSearchVideoRanksOwnCategoryFirst(t *testing.T) {
	eng := openTestEngine(t)
	ingest(t, eng, "sports_00", synthvid.Sports, 50)
	ingest(t, eng, "cartoon_00", synthvid.Cartoon, 51)
	ingest(t, eng, "news_00", synthvid.News, 52)

	// The identical sports clip must beat the others at video level.
	v := genVideo(synthvid.Sports, 50)
	matches, err := eng.SearchVideoCtx(context.Background(), v.Frames, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 3 {
		t.Fatalf("video matches = %d", len(matches))
	}
	if matches[0].VideoName != "sports_00" {
		t.Errorf("top video %q, distances %v", matches[0].VideoName, matches)
	}
	if matches[0].Distance >= matches[1].Distance {
		t.Error("self video not strictly closest")
	}
}

func TestDeleteVideoRemovesFromSearch(t *testing.T) {
	eng := openTestEngine(t)
	res := ingest(t, eng, "bye", synthvid.Nature, 60)
	ingest(t, eng, "stay", synthvid.News, 61)
	if err := eng.DeleteVideo(res.VideoID); err != nil {
		t.Fatal(err)
	}
	v := genVideo(synthvid.Nature, 60)
	matches, err := eng.SearchFrame(v.Frames[0], SearchOptions{NoPruning: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		if m.VideoID == res.VideoID {
			t.Error("deleted video still in results")
		}
	}
	n, _ := eng.Store().CountKeyFrames(nil)
	kfs, _ := eng.Store().KeyFramesOfVideo(nil, res.VideoID)
	if len(kfs) != 0 {
		t.Error("deleted video's key frames remain")
	}
	if n == 0 {
		t.Error("surviving video's key frames vanished")
	}
}

func TestCachePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.db")
	eng, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v := genVideo(synthvid.Cartoon, 70)
	if _, err := eng.IngestFramesCtx(context.Background(), "c", v.Frames, v.FPS); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	matches, err := eng2.SearchFrame(v.Frames[0], SearchOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].VideoName != "c" {
		t.Errorf("search after reopen: %+v", matches)
	}
}

func TestSearchEmptyDB(t *testing.T) {
	eng := openTestEngine(t)
	v := genVideo(synthvid.News, 90)
	matches, err := eng.SearchFrame(v.Frames[0], SearchOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Errorf("matches on empty DB: %d", len(matches))
	}
}

func TestFusionModesBothRank(t *testing.T) {
	eng := openTestEngine(t)
	ingest(t, eng, "sports_00", synthvid.Sports, 201)
	ingest(t, eng, "cartoon_00", synthvid.Cartoon, 202)
	v := genVideo(synthvid.Sports, 201)
	for _, fusion := range []Fusion{FusionRRF, FusionMinMax} {
		m, err := eng.SearchFrame(v.Frames[0], SearchOptions{K: 5, Fusion: fusion, NoPruning: true})
		if err != nil {
			t.Fatalf("fusion %d: %v", fusion, err)
		}
		if len(m) == 0 {
			t.Fatalf("fusion %d: no matches", fusion)
		}
		if m[0].VideoName != "sports_00" {
			t.Errorf("fusion %d: top match %q", fusion, m[0].VideoName)
		}
		for i := range m {
			if m[i].Distance < 0 || m[i].Distance > 1+1e-9 {
				t.Errorf("fusion %d: distance %g outside [0,1]", fusion, m[i].Distance)
			}
		}
	}
}

func TestMinMaxWeightsShiftRanking(t *testing.T) {
	eng := openTestEngine(t)
	ingest(t, eng, "news_00", synthvid.News, 210)
	ingest(t, eng, "movie_00", synthvid.Movie, 211)
	v := genVideo(synthvid.News, 212)
	kinds := []features.Kind{features.KindHistogram, features.KindGLCM}
	// All weight on histogram must equal a histogram-only search order.
	weighted, err := eng.SearchFrame(v.Frames[0], SearchOptions{
		Kinds: kinds, Weights: []float64{1, 0}, Fusion: FusionMinMax, NoPruning: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	histOnly, err := eng.SearchFrame(v.Frames[0], SearchOptions{
		Kinds: []features.Kind{features.KindHistogram}, NoPruning: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(weighted) != len(histOnly) {
		t.Fatalf("result sizes differ: %d vs %d", len(weighted), len(histOnly))
	}
	for i := range weighted {
		if weighted[i].KeyFrameID != histOnly[i].KeyFrameID {
			t.Fatalf("rank %d differs: %d vs %d", i, weighted[i].KeyFrameID, histOnly[i].KeyFrameID)
		}
	}
}

func TestBestSingleFrameAblationBaseline(t *testing.T) {
	eng := openTestEngine(t)
	ingest(t, eng, "sports_00", synthvid.Sports, 95)
	ingest(t, eng, "news_00", synthvid.News, 96)
	v := genVideo(synthvid.Sports, 95)
	qsets := eng.ExtractQuerySets(v.Frames[:3])
	matches, err := eng.BestSingleFrameVideoSearch(qsets, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 2 || matches[0].VideoName != "sports_00" {
		t.Errorf("ablation baseline: %+v", matches)
	}
}
