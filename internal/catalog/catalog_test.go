package catalog

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"testing"
	"time"

	"cbvr/internal/rangeindex"
	"cbvr/internal/vstore"
)

func openTestStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(filepath.Join(t.TempDir(), "cbvr.db"), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// stageContainer stages data as a container chain, the one way container
// bytes enter the store, and adopts it into tx.
func stageContainer(t *testing.T, s *Store, tx *vstore.Txn, data []byte) vstore.BlobRef {
	t.Helper()
	w, err := s.DB().NewStagedBlobWriter()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	ref, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.AdoptStaged(w); err != nil {
		t.Fatal(err)
	}
	return ref
}

// readContainer reads one of a video's containers whole.
func readContainer(t *testing.T, s *Store, id int64, c Container) []byte {
	t.Helper()
	r, ok, err := s.OpenContainer(id, c)
	if err != nil || !ok {
		t.Fatalf("open container: ok=%v err=%v", ok, err)
	}
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(b)) != r.Len() {
		t.Fatalf("read %d bytes, Len %d", len(b), r.Len())
	}
	return b
}

func sampleKeyFrame(name string, min, max int, videoID int64, idx int) *KeyFrame {
	return &KeyFrame{
		Name:         name,
		Image:        []byte("\xff\xd8 jpeg-ish payload"),
		Min:          min,
		Max:          max,
		SCH:          "RGB 256 1 2 3",
		GLCM:         "1 2 3 4 5 6",
		Gabor:        "gabor 60 0.5",
		Tamura:       "Tamura 18 1 2",
		ACC:          "ACC 4 0.5",
		Naive:        "NaiveVector java.awt.Color[r=1,g=2,b=3]",
		Regions:      "Regions 3 1 2",
		MajorRegions: 2,
		VideoID:      videoID,
		FrameIndex:   idx,
	}
}

func TestSchemaMatchesPaper(t *testing.T) {
	vs := VideoStoreSchema()
	wantVS := []string{"V_ID", "V_NAME", "VIDEO", "STREAM", "DOSTORE"}
	if len(vs.Cols) != len(wantVS) {
		t.Fatalf("VIDEO_STORE has %d columns", len(vs.Cols))
	}
	for i, n := range wantVS {
		if vs.Cols[i].Name != n {
			t.Errorf("VIDEO_STORE col %d = %s, want %s", i, vs.Cols[i].Name, n)
		}
	}
	kf := KeyFramesSchema()
	// The paper's columns, in its CREATE TABLE order, must be a prefix-
	// compatible subset of ours.
	paperCols := []string{"I_ID", "I_NAME", "IMAGE", "MIN", "MAX", "SCH", "GLCM", "GABOR", "TAMURA", "MAJORREGIONS", "V_ID"}
	for _, n := range paperCols {
		if kf.ColIndex(n) < 0 {
			t.Errorf("KEY_FRAMES missing paper column %s", n)
		}
	}
}

func TestVideoRoundTrip(t *testing.T) {
	s := openTestStore(t)
	tx, _ := s.Begin()
	video := bytes.Repeat([]byte("VID"), 10000)
	stream := bytes.Repeat([]byte("STR"), 2000)
	when := time.Date(2012, 10, 1, 0, 0, 0, 0, time.UTC)
	v := &Video{Name: "sports_01", VideoRef: stageContainer(t, s, tx, video), StreamRef: stageContainer(t, s, tx, stream), DoStore: when}
	id, err := s.InsertVideo(tx, v)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	info, ok, err := s.GetVideoInfo(nil, id)
	if err != nil || !ok {
		t.Fatalf("info: ok=%v err=%v", ok, err)
	}
	if info.Name != "sports_01" || info.VideoLen != int64(len(video)) || !info.DoStore.Equal(when) {
		t.Errorf("info: %+v", info)
	}
	if !bytes.Equal(readContainer(t, s, id, VideoContainer), video) {
		t.Error("video blob mismatch")
	}
	if !bytes.Equal(readContainer(t, s, id, StreamContainer), stream) {
		t.Error("stream blob mismatch")
	}
	if _, ok, _ := s.GetVideoInfo(nil, 999); ok {
		t.Error("phantom video")
	}
	if _, ok, err := s.OpenContainer(999, VideoContainer); ok || err != nil {
		t.Errorf("phantom container: ok=%v err=%v", ok, err)
	}
}

// TestContainerReaderFailsWhenRowChanges reads all but the last 100 bytes
// of a stored container, deletes the video, refills its freed pages with
// key-frame images and reuses its ID. Finishing the read must fail: a raw
// BlobReader over the same reference returns the full length, its last
// 100 bytes an image's.
func TestContainerReaderFailsWhenRowChanges(t *testing.T) {
	s := openTestStore(t)
	container := make([]byte, 60<<10)
	for i := range container {
		container[i] = byte(i * 7)
	}
	tx, _ := s.Begin()
	// A key frame of another video first, so that the images below
	// allocate blob pages only and not the KEY_FRAMES heap and index.
	keep, _ := s.InsertVideo(tx, &Video{Name: "keep"})
	if _, err := s.InsertKeyFrame(tx, sampleKeyFrame("keep#", 0, 255, keep, 0)); err != nil {
		t.Fatal(err)
	}
	id, err := s.InsertVideo(tx, &Video{Name: "gone", VideoRef: stageContainer(t, s, tx, container)})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	r, ok, err := s.OpenContainer(id, VideoContainer)
	if err != nil || !ok {
		t.Fatalf("open: ok=%v err=%v", ok, err)
	}
	head := make([]byte, len(container)-100)
	if _, err := io.ReadFull(r, head); err != nil {
		t.Fatal(err)
	}

	tx, _ = s.Begin()
	if err := s.DeleteVideo(tx, id); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Key frames whose images take twice the freed bytes from the free
	// list, then a new row under the same ID with an equal container.
	tx, _ = s.Begin()
	image := bytes.Repeat([]byte{0xAB}, 8000)
	for i := 0; i*len(image) < 2*len(container); i++ {
		kf := sampleKeyFrame("reused#", 0, 255, id, i)
		kf.Image = image
		if _, err := s.InsertKeyFrame(tx, kf); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.InsertVideo(tx, &Video{ID: id, Name: "reused", VideoRef: stageContainer(t, s, tx, container)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tail, err := io.ReadAll(r)
	if !errors.Is(err, ErrContainerChanged) {
		t.Fatalf("finishing the read: %d bytes, err %v; want ErrContainerChanged", len(tail), err)
	}
	if len(tail) != 0 {
		t.Errorf("%d bytes returned from a chain the row no longer names", len(tail))
	}
}

func TestKeyFrameRoundTrip(t *testing.T) {
	s := openTestStore(t)
	tx, _ := s.Begin()
	vid, _ := s.InsertVideo(tx, &Video{Name: "v"})
	kf := sampleKeyFrame("v#0001", 0, 127, vid, 1)
	id, err := s.InsertKeyFrame(tx, kf)
	if err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	got, ok, err := s.GetKeyFrame(nil, id)
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	if got.Name != "v#0001" || got.Min != 0 || got.Max != 127 ||
		got.SCH != kf.SCH || got.GLCM != kf.GLCM || got.Gabor != kf.Gabor ||
		got.Tamura != kf.Tamura || got.ACC != kf.ACC || got.Naive != kf.Naive ||
		got.Regions != kf.Regions || got.MajorRegions != 2 ||
		got.VideoID != vid || got.FrameIndex != 1 {
		t.Errorf("row mismatch: %+v", got)
	}
	if got.Range() != (rangeindex.Range{Min: 0, Max: 127}) {
		t.Errorf("range: %v", got.Range())
	}
	img, ok, err := s.KeyFrameImage(nil, id)
	if err != nil || !ok || !bytes.Equal(img, kf.Image) {
		t.Error("image blob mismatch")
	}
}

func TestKeyFramesOfVideoAndDelete(t *testing.T) {
	s := openTestStore(t)
	tx, _ := s.Begin()
	v1, _ := s.InsertVideo(tx, &Video{Name: "a"})
	v2, _ := s.InsertVideo(tx, &Video{Name: "b"})
	for i := 0; i < 3; i++ {
		s.InsertKeyFrame(tx, sampleKeyFrame("a", 0, 255, v1, i))
	}
	s.InsertKeyFrame(tx, sampleKeyFrame("b", 0, 255, v2, 0))
	tx.Commit()

	kfs, err := s.KeyFramesOfVideo(nil, v1)
	if err != nil || len(kfs) != 3 {
		t.Fatalf("video a has %d frames, err %v", len(kfs), err)
	}
	for i := 1; i < len(kfs); i++ {
		if kfs[i].FrameIndex < kfs[i-1].FrameIndex {
			t.Error("frames out of order")
		}
	}

	tx2, _ := s.Begin()
	if err := s.DeleteVideo(tx2, v1); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()

	if n, _ := s.CountVideos(nil); n != 1 {
		t.Errorf("videos after delete = %d", n)
	}
	if n, _ := s.CountKeyFrames(nil); n != 1 {
		t.Errorf("key frames after delete = %d", n)
	}
	if kfs, _ := s.KeyFramesOfVideo(nil, v1); len(kfs) != 0 {
		t.Errorf("deleted video still has %d key frames", len(kfs))
	}

	tx3, _ := s.Begin()
	defer tx3.Abort()
	if err := s.DeleteVideo(tx3, v1); err == nil {
		t.Error("double delete should fail")
	}
}

func TestListVideosOrdered(t *testing.T) {
	s := openTestStore(t)
	tx, _ := s.Begin()
	for _, n := range []string{"x", "y", "z"} {
		s.InsertVideo(tx, &Video{Name: n})
	}
	tx.Commit()
	vids, err := s.ListVideos(nil)
	if err != nil || len(vids) != 3 {
		t.Fatalf("list: %d err=%v", len(vids), err)
	}
	for i := 1; i < len(vids); i++ {
		if vids[i].ID <= vids[i-1].ID {
			t.Error("list not ordered by id")
		}
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.db")
	s, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := s.Begin()
	vid, _ := s.InsertVideo(tx, &Video{Name: "persist", VideoRef: stageContainer(t, s, tx, []byte("vvv"))})
	kfID, _ := s.InsertKeyFrame(tx, sampleKeyFrame("kf", 64, 127, vid, 0))
	tx.Commit()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path, &vstore.Options{CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	kf, ok, err := s2.GetKeyFrame(nil, kfID)
	if err != nil || !ok {
		t.Fatalf("key frame lost: ok=%v err=%v", ok, err)
	}
	if kf.Min != 64 || kf.Max != 127 {
		t.Errorf("range lost: %d-%d", kf.Min, kf.Max)
	}
}
