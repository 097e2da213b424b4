package core

import (
	"testing"

	"cbvr/internal/synthvid"
)

// TestPublishSyntheticSkipsCachedID pins that re-publishing an already
// cached ID skips the frame whole: its entry, and also its video name,
// so the cached video keeps its name and no empty video appears for a
// frame that was never filed.
func TestPublishSyntheticSkipsCachedID(t *testing.T) {
	eng := openCellEngine(t, Options{SearchShards: 2})
	set := synthvid.NewClusterCorpus(synthvid.ClusterCorpusConfig{Frames: 1}).Set(1)
	publish := func(frames ...SyntheticFrame) {
		t.Helper()
		for i := range frames {
			frames[i].Set = set
		}
		if err := eng.PublishSyntheticFrames(frames, setsOf(frames)); err != nil {
			t.Fatal(err)
		}
	}
	publish(SyntheticFrame{ID: 1, VideoID: 1, VideoName: "a"})
	publish(SyntheticFrame{ID: 1, VideoID: 1, VideoName: "b"}, SyntheticFrame{ID: 1, VideoID: 2, VideoName: "c"})

	eng.mu.RLock()
	defer eng.mu.RUnlock()
	if v := eng.videos[1]; v == nil || v.name != "a" || len(v.frames) != 1 {
		t.Fatalf("video 1 = %+v, want the original %q with its one frame", v, "a")
	}
	if v, ok := eng.videos[2]; ok {
		t.Fatalf("a skipped frame left video 2 in the index: %+v", v)
	}
	if en := eng.byID[1]; en == nil || en.videoID != 1 {
		t.Fatalf("ID 1 = %+v, want the first publish's entry", en)
	}
}
