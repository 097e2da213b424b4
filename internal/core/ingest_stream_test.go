package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"cbvr/internal/catalog"
	"cbvr/internal/cvj"
	"cbvr/internal/imaging"
	"cbvr/internal/synthvid"
)

// testContainer encodes a deterministic synthetic clip as CVJ bytes.
func testContainer(t *testing.T, cat synthvid.Category, seed int64, frames int) ([]byte, *synthvid.Video) {
	t.Helper()
	v := synthvid.Generate(cat, synthvid.Config{
		Width: 96, Height: 72, Frames: frames, Shots: 3, Seed: seed,
	})
	raw, err := cvj.EncodeBytes(v.Frames, v.FPS, 0)
	if err != nil {
		t.Fatal(err)
	}
	return raw, v
}

// loadRows fetches a video's stored blobs and key-frame rows (with image
// bytes materialised) for byte-level comparison.
type storedVideo struct {
	video  []byte
	stream []byte
	rows   []*catalog.KeyFrame
	images [][]byte
}

func loadStored(t *testing.T, eng *Engine, videoID int64) *storedVideo {
	t.Helper()
	video, ok, err := eng.Store().VideoBytes(nil, videoID)
	if err != nil || !ok {
		t.Fatalf("video blob: ok=%v err=%v", ok, err)
	}
	stream, ok, err := eng.Store().StreamBytes(nil, videoID)
	if err != nil || !ok {
		t.Fatalf("stream blob: ok=%v err=%v", ok, err)
	}
	rows, err := eng.Store().KeyFramesOfVideo(nil, videoID)
	if err != nil {
		t.Fatal(err)
	}
	sv := &storedVideo{video: video, stream: stream, rows: rows}
	for _, r := range rows {
		img, ok, err := eng.Store().KeyFrameImage(nil, r.ID)
		if err != nil || !ok {
			t.Fatalf("key frame %d image: ok=%v err=%v", r.ID, ok, err)
		}
		sv.images = append(sv.images, img)
	}
	return sv
}

// TestStreamedIngestBitIdenticalRows is the headline equivalence: the
// streamed pipeline (reader entry point), the buffered wrapper and the
// retained in-memory reference must produce bit-identical stored rows —
// VIDEO and STREAM blobs, every feature column, bucket, name, frame index
// and IMAGE bytes.
func TestStreamedIngestBitIdenticalRows(t *testing.T) {
	raw, _ := testContainer(t, synthvid.Sports, 31, 18)

	type path struct {
		name   string
		ingest func(*Engine) (*IngestResult, error)
	}
	paths := []path{
		{"stream", func(e *Engine) (*IngestResult, error) {
			return e.IngestVideoStream("clip", bytes.NewReader(raw))
		}},
		{"buffered", func(e *Engine) (*IngestResult, error) {
			return e.IngestVideo("clip", raw)
		}},
		{"reference", func(e *Engine) (*IngestResult, error) {
			return e.IngestVideoReference("clip", raw)
		}},
	}
	var first *storedVideo
	var firstRes *IngestResult
	for _, p := range paths {
		eng := openTestEngine(t)
		res, err := p.ingest(eng)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		sv := loadStored(t, eng, res.VideoID)
		if first == nil {
			first, firstRes = sv, res
			if len(sv.rows) < 2 {
				t.Fatalf("degenerate fixture: %d key frames", len(sv.rows))
			}
			continue
		}
		if res.NumFrames != firstRes.NumFrames || len(res.KeyFrameIDs) != len(firstRes.KeyFrameIDs) {
			t.Fatalf("%s: result %+v, want %+v", p.name, res, firstRes)
		}
		if !bytes.Equal(sv.video, first.video) {
			t.Errorf("%s: VIDEO blob differs", p.name)
		}
		if !bytes.Equal(sv.stream, first.stream) {
			t.Errorf("%s: STREAM blob differs", p.name)
		}
		if len(sv.rows) != len(first.rows) {
			t.Fatalf("%s: %d rows, want %d", p.name, len(sv.rows), len(first.rows))
		}
		for i, r := range sv.rows {
			w := first.rows[i]
			if r.Name != w.Name || r.FrameIndex != w.FrameIndex ||
				r.Min != w.Min || r.Max != w.Max || r.MajorRegions != w.MajorRegions ||
				r.SCH != w.SCH || r.GLCM != w.GLCM || r.Gabor != w.Gabor ||
				r.Tamura != w.Tamura || r.ACC != w.ACC || r.Naive != w.Naive ||
				r.Regions != w.Regions {
				t.Errorf("%s: key frame %d row differs from %s", p.name, i, paths[0].name)
			}
			if !bytes.Equal(sv.images[i], first.images[i]) {
				t.Errorf("%s: key frame %d IMAGE bytes differ", p.name, i)
			}
		}
	}
}

// TestIngestStoresOriginalJPEGBytes pins the generation-loss fix: stored
// key-frame IMAGE rows and the STREAM records are the container's original
// frame bytes, not a decode→re-encode of them.
func TestIngestStoresOriginalJPEGBytes(t *testing.T) {
	raw, _ := testContainer(t, synthvid.Cartoon, 32, 16)

	// Collect the container's records by frame index.
	cr, err := cvj.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var records [][]byte
	for {
		f, err := cr.NextFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		records = append(records, f.JPEG)
	}

	eng := openTestEngine(t)
	res, err := eng.IngestVideoStream("clip", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	sv := loadStored(t, eng, res.VideoID)
	if !bytes.Equal(sv.video, raw) {
		t.Error("re-assembled VIDEO blob differs from the source container")
	}
	var kfRecords [][]byte
	for i, r := range sv.rows {
		if !bytes.Equal(sv.images[i], records[r.FrameIndex]) {
			t.Errorf("key frame %d IMAGE is not the container's original record", i)
		}
		kfRecords = append(kfRecords, records[r.FrameIndex])
	}
	// STREAM must be those records re-framed, byte for byte.
	wantStream, err := cvj.EncodeRawBytes(kfRecords, cr.FPS())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sv.stream, wantStream) {
		t.Error("STREAM blob is not assembled from the original records")
	}
}

// TestIngestTruncatedContainerFailsCleanly cuts a container at a frame
// boundary: ingest must fail with an error wrapping io.ErrUnexpectedEOF
// (not read as clean end-of-stream), commit nothing, and leave the engine
// fully usable.
func TestIngestTruncatedContainerFailsCleanly(t *testing.T) {
	raw, v := testContainer(t, synthvid.News, 33, 12)
	eng := openTestEngine(t)
	for _, cut := range []int{len(raw) - 6, len(raw) / 2, 30} {
		_, err := eng.IngestVideoStream("trunc", bytes.NewReader(raw[:cut]))
		if err == nil {
			t.Fatalf("cut %d: truncated container accepted", cut)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("cut %d: error %v does not wrap io.ErrUnexpectedEOF", cut, err)
		}
	}
	if n, _ := eng.Store().CountVideos(nil); n != 0 {
		t.Fatalf("%d videos committed from truncated containers", n)
	}
	if n, _ := eng.Store().CountKeyFrames(nil); n != 0 {
		t.Fatalf("%d key frames committed from truncated containers", n)
	}
	// The engine still ingests and searches normally afterwards.
	res, err := eng.IngestVideo("ok", raw)
	if err != nil {
		t.Fatal(err)
	}
	m, err := eng.SearchFrame(v.Frames[0], SearchOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 1 || m[0].VideoID != res.VideoID {
		t.Fatalf("post-failure search: %+v", m)
	}
}

// TestIngestCorruptMidStreamDeterministic corrupts a frame record in the
// middle of the container — after earlier key frames have already been
// selected and extracted. The failure must be deterministic (same error,
// naming the first corrupt frame in stream order, on every attempt) and
// must leave no partial rows behind.
func TestIngestCorruptMidStreamDeterministic(t *testing.T) {
	raw, _ := testContainer(t, synthvid.Movie, 34, 14)

	// Walk the records to find the payload offset of a mid-stream frame,
	// then smash its JPEG SOI marker.
	const target = 9
	off := 8 // magic + header
	for i := 0; i < target; i++ {
		n := binary.BigEndian.Uint32(raw[off : off+4])
		off += 4 + int(n)
	}
	corrupt := bytes.Clone(raw)
	corrupt[off+4], corrupt[off+5] = 0x00, 0x00

	// The same record with its SOF patched to declare 30000×30000: the
	// decoder's pixel limit must hold on the container read path too.
	huge := bytes.Clone(raw)
	n := int(binary.BigEndian.Uint32(huge[off : off+4]))
	sof := bytes.Index(huge[off+4:off+4+n], []byte{0xff, 0xc0}) // baseline SOF: marker, length, precision, height, width
	if sof < 0 {
		t.Fatal("no SOF0 marker")
	}
	sof += off + 4
	binary.BigEndian.PutUint16(huge[sof+5:], 30000)
	binary.BigEndian.PutUint16(huge[sof+7:], 30000)

	eng := openTestEngine(t)
	for name, container := range map[string][]byte{"corrupt": corrupt, "huge": huge} {
		var msgs []string
		for attempt := 0; attempt < 2; attempt++ {
			_, err := eng.IngestVideoStream(name, bytes.NewReader(container))
			if err == nil {
				t.Fatalf("%s container accepted", name)
			}
			if !errors.Is(err, cvj.ErrFormat) {
				t.Errorf("%s: error does not match cvj.ErrFormat (HTTP 400): %v", name, err)
			}
			msgs = append(msgs, err.Error())
		}
		if msgs[0] != msgs[1] {
			t.Errorf("%s: error not deterministic:\n%s\n%s", name, msgs[0], msgs[1])
		}
		if !strings.Contains(msgs[0], fmt.Sprintf("frame %d", target)) {
			t.Errorf("%s: error does not name frame %d: %s", name, target, msgs[0])
		}
		if name == "huge" && !strings.Contains(msgs[0], "pixel limit") {
			t.Errorf("huge: error does not name the pixel limit: %s", msgs[0])
		}
		// The record read ingest makes fails at the same record, after
		// every record before it decoded.
		cr, err := cvj.NewReader(bytes.NewReader(container))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; ; i++ {
			if _, err := cr.NextRecord(); err != nil {
				if i != target || !errors.Is(err, cvj.ErrFormat) {
					t.Errorf("%s: NextRecord failed at record %d with %v, want record %d with ErrFormat", name, i, err, target)
				}
				break
			}
		}
	}
	if n, _ := eng.Store().CountVideos(nil); n != 0 {
		t.Fatalf("%d videos committed from corrupt containers", n)
	}
	if n, _ := eng.Store().CountKeyFrames(nil); n != 0 {
		t.Fatalf("%d key frames committed from corrupt containers", n)
	}
}

// TestIngestFramesMidBatchEncodeFailure plants an unencodable frame in the
// middle of a batch: IngestFrames must fail deterministically, naming the
// first bad frame, with nothing committed and the engine unharmed.
func TestIngestFramesMidBatchEncodeFailure(t *testing.T) {
	eng := openTestEngine(t)
	v := genVideo(synthvid.Sports, 35)
	bad := make([]*imaging.Image, 0, len(v.Frames)+1)
	bad = append(bad, v.Frames[:3]...)
	bad = append(bad, &imaging.Image{}) // 0×0: EncodeJPEG rejects it
	bad = append(bad, v.Frames[3:]...)

	var msgs []string
	for attempt := 0; attempt < 2; attempt++ {
		_, err := eng.IngestFrames("bad", bad, v.FPS)
		if err == nil {
			t.Fatal("unencodable frame accepted")
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Errorf("error not deterministic:\n%s\n%s", msgs[0], msgs[1])
	}
	if !strings.Contains(msgs[0], "frame 3") {
		t.Errorf("error does not name frame 3: %s", msgs[0])
	}
	if n, _ := eng.Store().CountVideos(nil); n != 0 {
		t.Fatalf("%d videos committed after encode failure", n)
	}
	if _, err := eng.IngestFrames("good", v.Frames, v.FPS); err != nil {
		t.Fatalf("engine unusable after encode failure: %v", err)
	}
}

// TestConcurrentStreamIngestSearchChurn runs reader-based ingests
// concurrently with searches and deletes under the race detector,
// mirroring race_test.go's churn for the streamed path (pooled planes,
// shared extraction workers).
func TestConcurrentStreamIngestSearchChurn(t *testing.T) {
	eng := openTestEngine(t)
	seed := ingest(t, eng, "seed", synthvid.Sports, 440)
	sv := genVideo(synthvid.Sports, 440)
	qset := eng.ExtractQuerySets(sv.Frames[:1])[0]
	qbucket := QueryBucket(sv.Frames[0])

	small := func(seedN int64) []byte {
		v := synthvid.Generate(synthvid.Movie, synthvid.Config{
			Width: 48, Height: 36, Frames: 6, Shots: 2, Seed: seedN,
		})
		raw, err := cvj.EncodeBytes(v.Frames, v.FPS, 0)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	containers := make([][]byte, 4)
	for i := range containers {
		containers[i] = small(int64(600 + i))
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for s := 0; s < 3; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				m, err := eng.SearchWithSet(qset, qbucket, SearchOptions{K: 3, NoPruning: i%2 == 0})
				if err != nil {
					errCh <- err
					return
				}
				if len(m) == 0 {
					errCh <- errNoMatches
					return
				}
			}
		}(s)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				c := containers[(g*4+i)%len(containers)]
				res, err := eng.IngestVideoStream(fmt.Sprintf("churn_%d_%d", g, i), bytes.NewReader(c))
				if err != nil {
					errCh <- err
					return
				}
				if err := eng.DeleteVideo(res.VideoID); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	m, err := eng.SearchWithSet(qset, qbucket, SearchOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 1 || m[0].VideoID != seed.VideoID {
		t.Fatalf("post-churn top match %+v, want video %d", m, seed.VideoID)
	}
}

// TestIngestEmptyContainer preserves the pre-streaming behaviour: a
// well-formed container with zero frames ingests to a video row with no
// key frames through both entry points.
func TestIngestEmptyContainer(t *testing.T) {
	raw, err := cvj.EncodeBytes(nil, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := openTestEngine(t)
	for i, ing := range []func() (*IngestResult, error){
		func() (*IngestResult, error) { return eng.IngestVideo("empty_buf", raw) },
		func() (*IngestResult, error) { return eng.IngestVideoStream("empty_stream", bytes.NewReader(raw)) },
	} {
		res, err := ing()
		if err != nil {
			t.Fatalf("path %d: %v", i, err)
		}
		if res.NumFrames != 0 || len(res.KeyFrameIDs) != 0 {
			t.Fatalf("path %d: %+v", i, res)
		}
	}
}
