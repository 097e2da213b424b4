package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"path/filepath"
	"testing"

	"cbvr/internal/synthvid"
)

// cancelAfterReader cancels a context once n bytes have been read, then
// keeps counting the bytes handed out afterwards — the measure of how much
// work an aborted ingest still performed.
type cancelAfterReader struct {
	r           io.Reader
	n           int
	cancel      context.CancelFunc
	fired       bool
	afterCancel int
}

func (c *cancelAfterReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if c.fired {
		c.afterCancel += n
	} else {
		c.n -= n
		if c.n <= 0 {
			c.fired = true
			c.cancel()
		}
	}
	return n, err
}

// TestIngestCtxCancelMidDecode aborts an ingest part-way through the
// container: the pipeline must stop within about one decode iteration,
// discard the staged pages, commit nothing, and leave the store closeable
// and reopenable with zero orphan rows.
func TestIngestCtxCancelMidDecode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cancel.db")
	eng, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := testContainer(t, synthvid.Cartoon, 11, 24)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cr := &cancelAfterReader{r: bytes.NewReader(raw), n: len(raw) / 3, cancel: cancel}
	if _, err := eng.IngestVideoStreamCtx(ctx, "doomed", cr); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ingest returned %v, want context.Canceled", err)
	}
	// The decode loop checks cancellation every iteration, so it must not
	// have consumed anywhere near the remaining two thirds of the stream
	// (one frame record plus one bufio fill is the honest upper bound).
	if cr.afterCancel > len(raw)/3 {
		t.Fatalf("read %d bytes after cancel (container %d): abort was not within a decode iteration", cr.afterCancel, len(raw))
	}

	// Nothing committed, nothing published.
	vids, err := eng.Store().ListVideos(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vids) != 0 {
		t.Fatalf("cancelled ingest left %d videos", len(vids))
	}
	if n, err := eng.CacheSize(); err != nil || n != 0 {
		t.Fatalf("cache after cancel: n=%d err=%v", n, err)
	}

	// Staged pages were discarded, so the store closes and reopens clean,
	// and a fresh ingest over the same bytes succeeds.
	if err := eng.Close(); err != nil {
		t.Fatalf("close after cancelled ingest: %v", err)
	}
	eng2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen after cancelled ingest: %v", err)
	}
	defer eng2.Close()
	vids, err = eng2.Store().ListVideos(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vids) != 0 {
		t.Fatalf("reopened store has %d orphan videos", len(vids))
	}
	res, err := eng2.IngestVideoStreamCtx(context.Background(), "retry", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("re-ingest after cancel: %v", err)
	}
	if res.NumFrames != 24 {
		t.Fatalf("re-ingest decoded %d frames, want 24", res.NumFrames)
	}
}

// TestConcurrentIngestOverlap proves the tentpole property: one client's
// staging makes full progress while another client sits inside the commit
// critical section holding the writer lock. Client A blocks at the
// "in-commit" hook (transaction begun, lock held); client B must still
// reach "staged" — decode, extraction and blob staging never touch the
// writer lock.
func TestConcurrentIngestOverlap(t *testing.T) {
	eng := openTestEngine(t)
	rawA, _ := testContainer(t, synthvid.Cartoon, 21, 16)
	rawB, _ := testContainer(t, synthvid.Sports, 22, 16)

	aInCommit := make(chan struct{})
	bStaged := make(chan struct{})
	release := make(chan struct{})
	eng.ingestHook = func(stage, name string) {
		switch {
		case name == "A" && stage == "in-commit":
			close(aInCommit)
			<-release
		case name == "B" && stage == "staged":
			close(bStaged)
		}
	}

	errA := make(chan error, 1)
	errB := make(chan error, 1)
	go func() {
		_, err := eng.IngestVideoStreamCtx(context.Background(), "A", bytes.NewReader(rawA))
		errA <- err
	}()
	<-aInCommit // A holds the writer lock and is parked
	go func() {
		_, err := eng.IngestVideoStreamCtx(context.Background(), "B", bytes.NewReader(rawB))
		errB <- err
	}()
	// B finishing its staging phase while A is wedged in commit is the
	// wall-clock overlap the upload spool exists for. If staging needed the
	// writer lock this receive would deadlock (go test would time out).
	<-bStaged
	close(release)
	if err := <-errA; err != nil {
		t.Fatalf("ingest A: %v", err)
	}
	if err := <-errB; err != nil {
		t.Fatalf("ingest B: %v", err)
	}
	eng.ingestHook = nil

	vids, err := eng.Store().ListVideos(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vids) != 2 {
		t.Fatalf("got %d videos, want 2", len(vids))
	}
	// Both commits landed intact: every stored row is scoreable and the
	// sharded search agrees with the reference over the combined store.
	q := genVideo(synthvid.Cartoon, 21).Frames[0]
	got, err := eng.SearchFrame(q, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("search over both videos returned nothing")
	}
}

// TestIngestEmptyNameRejected covers every engine ingest entry point: an
// empty or all-whitespace name must fail with ErrEmptyName before any
// bytes are read or pages staged.
func TestIngestEmptyNameRejected(t *testing.T) {
	eng := openTestEngine(t)
	raw, v := testContainer(t, synthvid.Cartoon, 31, 8)
	for _, name := range []string{"", "   ", "\t\n"} {
		if _, err := eng.IngestFramesCtx(context.Background(), name, v.Frames, v.FPS); !errors.Is(err, ErrEmptyName) {
			t.Errorf("IngestFramesCtx(%q): %v, want ErrEmptyName", name, err)
		}
		if _, err := eng.IngestVideoStreamCtx(context.Background(), name, bytes.NewReader(raw)); !errors.Is(err, ErrEmptyName) {
			t.Errorf("IngestVideoStreamCtx(%q): %v, want ErrEmptyName", name, err)
		}
		if _, err := eng.IngestVideoReference(name, raw); !errors.Is(err, ErrEmptyName) {
			t.Errorf("IngestVideoReference(%q): %v, want ErrEmptyName", name, err)
		}
	}
	vids, err := eng.Store().ListVideos(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vids) != 0 {
		t.Fatalf("empty-name ingests left %d videos", len(vids))
	}
}

// TestSearchFrameCtxCancelled verifies a cancelled search returns the
// context error, not a partial ranking.
func TestSearchFrameCtxCancelled(t *testing.T) {
	eng := openTestEngine(t)
	ingest(t, eng, "clip", synthvid.Cartoon, 41)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := genVideo(synthvid.Cartoon, 41).Frames[0]
	if _, err := eng.SearchFrameCtx(ctx, q, SearchOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search returned %v, want context.Canceled", err)
	}
	if _, err := eng.SearchFrameCtx(context.Background(), q, SearchOptions{}); err != nil {
		t.Fatalf("live search after cancelled one: %v", err)
	}
}

// TestReindexCtxCancelled verifies a cancelled reindex leaves the stored
// rows untouched and reports the context error.
func TestReindexCtxCancelled(t *testing.T) {
	eng := openTestEngine(t)
	res := ingest(t, eng, "clip", synthvid.Cartoon, 51)
	before, err := eng.Store().KeyFramesOfVideo(nil, res.VideoID)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.ReindexVideoCtx(ctx, res.VideoID); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled reindex returned %v, want context.Canceled", err)
	}
	after, err := eng.Store().KeyFramesOfVideo(nil, res.VideoID)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("cancelled reindex changed row count %d -> %d", len(before), len(after))
	}
	for i := range after {
		if after[i].SCH != before[i].SCH || after[i].Naive != before[i].Naive {
			t.Fatalf("cancelled reindex rewrote row %d", i)
		}
	}
}

// TestIngestFramesCtxCancelled pins the new pre-encoded ingest entry
// point: a cancelled context must surface context.Canceled and leave
// nothing committed, and the same engine must still ingest normally
// afterwards.
func TestIngestFramesCtxCancelled(t *testing.T) {
	eng := openTestEngine(t)
	v := genVideo(synthvid.Cartoon, 61)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.IngestFramesCtx(ctx, "doomed", v.Frames, v.FPS); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled IngestFramesCtx returned %v, want context.Canceled", err)
	}
	vids, err := eng.Store().ListVideos(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vids) != 0 {
		t.Fatalf("cancelled ingest committed %d video(s)", len(vids))
	}
	if _, err := eng.IngestFramesCtx(context.Background(), "alive", v.Frames, v.FPS); err != nil {
		t.Fatalf("live ingest after cancelled one: %v", err)
	}
}

// TestSearchVideoCtxCancelled verifies the clip-query path honors
// cancellation: context error out, no partial ranking, and the engine
// keeps serving live queries.
func TestSearchVideoCtxCancelled(t *testing.T) {
	eng := openTestEngine(t)
	ingest(t, eng, "clip", synthvid.Cartoon, 71)
	q := genVideo(synthvid.Cartoon, 71).Frames[:3]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.SearchVideoCtx(ctx, q, SearchOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled SearchVideoCtx returned %v, want context.Canceled", err)
	}
	got, err := eng.SearchVideoCtx(context.Background(), q, SearchOptions{})
	if err != nil {
		t.Fatalf("live clip search after cancelled one: %v", err)
	}
	if len(got) == 0 {
		t.Fatal("live clip search returned nothing")
	}
}
