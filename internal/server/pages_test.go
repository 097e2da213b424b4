package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cbvr/internal/core"
	"cbvr/internal/cvj"
	"cbvr/internal/synthvid"
	"cbvr/internal/vstore"
	"cbvr/internal/vstore/faultfs"
)

// newPageServer serves one resident ten-frame cartoon video.
func newPageServer(t *testing.T, opts Options) (*Server, *core.Engine, *core.IngestResult) {
	t.Helper()
	eng := openTestEngine(t)
	v := synthvid.Generate(synthvid.Cartoon, synthvid.Config{Width: 96, Height: 72, Frames: 10, Shots: 2, Seed: 3})
	res, err := eng.IngestFramesCtx(context.Background(), "cartoon_00", v.Frames, v.FPS)
	if err != nil {
		t.Fatal(err)
	}
	return New(eng, opts), eng, res
}

// postForm sends a urlencoded form post.
func postForm(srv http.Handler, path, form string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(form))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

// postMultipart sends a multipart form post.
func postMultipart(srv http.Handler, path string, body io.Reader, ctype string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, body)
	req.Header.Set("Content-Type", ctype)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

func TestHomePageListsVideos(t *testing.T) {
	srv, _, _ := newPageServer(t, Options{})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "cartoon_00") {
		t.Error("home page missing video name")
	}
	if !strings.Contains(body, "Query by example frame") {
		t.Error("home page missing query form")
	}
}

func TestHomePageUnknownPath404(t *testing.T) {
	srv, _, _ := newPageServer(t, Options{})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/nope", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("status %d", rec.Code)
	}
}

func TestSearchReturnsResultGrid(t *testing.T) {
	srv, _, _ := newPageServer(t, Options{})
	v := synthvid.Generate(synthvid.Cartoon, synthvid.Config{Width: 96, Height: 72, Frames: 3, Shots: 1, Seed: 9})
	body, ctype := multipartBody(t, "image", "q.jpg", queryJPEG(t, v), map[string]string{"k": "5"})
	rec := postMultipart(srv, "/search", body, ctype)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "/frame?id=") {
		t.Error("result grid missing frame links")
	}
}

func TestSearchRejectsNonPost(t *testing.T) {
	srv, _, _ := newPageServer(t, Options{})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("status %d", rec.Code)
	}
}

func TestSearchRejectsGarbageImage(t *testing.T) {
	srv, _, _ := newPageServer(t, Options{})
	body, ctype := multipartBody(t, "image", "q.jpg", []byte("not a jpeg"), nil)
	if rec := postMultipart(srv, "/search", body, ctype); rec.Code != http.StatusBadRequest {
		t.Errorf("status %d", rec.Code)
	}
}

func TestVideoPageShowsKeyFrames(t *testing.T) {
	srv, _, res := newPageServer(t, Options{})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/video?id=%d", res.VideoID), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "data:image/jpeg;base64,") {
		t.Error("video page missing inline key frames")
	}
	if !strings.Contains(body, "bucket [") {
		t.Error("video page missing range buckets")
	}
}

// TestVideoPageFailsOnUnreadableFrame pins that a key-frame image the
// store fails to read fails the page with a 500 instead of being silently
// left off a 200. The store is reopened cold and the listing read once, so
// with every data-file read failing afterwards only the image reads miss.
func TestVideoPageFailsOnUnreadableFrame(t *testing.T) {
	ffs := faultfs.New()
	opts := core.Options{Store: vstore.Options{FS: ffs}}
	eng, err := core.Open("pages.db", opts)
	if err != nil {
		t.Fatal(err)
	}
	v := synthvid.Generate(synthvid.Cartoon, synthvid.Config{Width: 96, Height: 72, Frames: 10, Shots: 2, Seed: 3})
	res, err := eng.IngestFramesCtx(context.Background(), "cartoon_00", v.Frames, v.FPS)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if eng, err = core.Open("pages.db", opts); err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := New(eng, Options{})
	listing := func() error {
		if _, _, err := eng.Store().GetVideoInfo(nil, res.VideoID); err != nil {
			return err
		}
		_, err := eng.Store().KeyFramesOfVideo(nil, res.VideoID)
		return err
	}
	if err := listing(); err != nil {
		t.Fatal(err)
	}
	ffs.SetInjector(func(op faultfs.Op) faultfs.Action {
		if op.Kind == faultfs.OpRead && op.Name == "pages.db" {
			return faultfs.ActErr
		}
		return faultfs.ActNone
	})
	if err := listing(); err != nil {
		t.Fatalf("listing not served from the buffer pool: %v", err)
	}
	path := fmt.Sprintf("/video?id=%d", res.VideoID)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("unreadable key frame: status %d, want 500", rec.Code)
	}

	ffs.SetInjector(nil)
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "data:image/jpeg;base64,") {
		t.Errorf("after the fault: status %d, want 200 with key frames", rec.Code)
	}
}

func TestVideoPageMissing404(t *testing.T) {
	srv, _, _ := newPageServer(t, Options{})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/video?id=999", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("status %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/video?id=abc", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad id status %d", rec.Code)
	}
}

func TestFrameServesJPEG(t *testing.T) {
	srv, _, res := newPageServer(t, Options{})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/frame?id=%d", res.KeyFrameIDs[0]), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "image/jpeg" {
		t.Errorf("content type %q", ct)
	}
	if !bytes.HasPrefix(rec.Body.Bytes(), []byte{0xff, 0xd8}) {
		t.Error("payload is not a JPEG")
	}
}

func TestDownloadServesContainer(t *testing.T) {
	srv, _, res := newPageServer(t, Options{})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/download?id=%d", res.VideoID), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if !bytes.HasPrefix(rec.Body.Bytes(), []byte(cvj.Magic)) {
		t.Error("download is not a CVJ container")
	}
}

func TestAdminUploadIngests(t *testing.T) {
	srv, eng, _ := newPageServer(t, Options{})
	v := synthvid.Generate(synthvid.News, synthvid.Config{Width: 96, Height: 72, Frames: 6, Shots: 2, Seed: 4})
	raw, err := cvj.EncodeBytes(v.Frames, v.FPS, 0)
	if err != nil {
		t.Fatal(err)
	}
	body, ctype := multipartBody(t, "video", "news.cvj", raw, map[string]string{"name": "news_99"})
	rec := postMultipart(srv, "/admin/upload", body, ctype)
	if rec.Code != http.StatusSeeOther {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	vids, _ := eng.Store().ListVideos(nil)
	found := false
	for _, vi := range vids {
		if vi.Name == "news_99" {
			found = true
		}
	}
	if !found {
		t.Error("uploaded video not in store")
	}
}

func TestAdminUploadRejectsGarbage(t *testing.T) {
	srv, _, _ := newPageServer(t, Options{})
	body, ctype := multipartBody(t, "video", "x.cvj", []byte("garbage"), nil)
	if rec := postMultipart(srv, "/admin/upload", body, ctype); rec.Code != http.StatusBadRequest {
		t.Errorf("status %d", rec.Code)
	}
}

func TestAdminDelete(t *testing.T) {
	srv, eng, res := newPageServer(t, Options{})
	rec := postForm(srv, "/admin/delete", fmt.Sprintf("id=%d", res.VideoID))
	if rec.Code != http.StatusSeeOther {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	n, _ := eng.Store().CountVideos(nil)
	if n != 0 {
		t.Errorf("videos after delete = %d", n)
	}
	// Deleting again names a video that no longer exists: 404.
	if rec := postForm(srv, "/admin/delete", fmt.Sprintf("id=%d", res.VideoID)); rec.Code != http.StatusNotFound {
		t.Errorf("double delete status %d", rec.Code)
	}
}

func TestEndToEndSearchFlow(t *testing.T) {
	// Upload → search with a frame of the uploaded video → its own key
	// frame ranks first → fetch that frame image.
	srv, _, _ := newPageServer(t, Options{})
	v := synthvid.Generate(synthvid.Nature, synthvid.Config{Width: 96, Height: 72, Frames: 8, Shots: 2, Seed: 12})
	raw, _ := cvj.EncodeBytes(v.Frames, v.FPS, 0)
	body, ctype := multipartBody(t, "video", "nature.cvj", raw, map[string]string{"name": "nature_77"})
	if rec := postMultipart(srv, "/admin/upload", body, ctype); rec.Code != http.StatusSeeOther {
		t.Fatalf("upload status %d", rec.Code)
	}

	body, ctype = multipartBody(t, "image", "q.jpg", queryJPEG(t, v), map[string]string{"k": "3"})
	rec := postMultipart(srv, "/search", body, ctype)
	if rec.Code != http.StatusOK {
		t.Fatalf("search status %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "nature_77") {
		t.Error("uploaded video not found by its own frame")
	}

	// Pull the first frame link out of the grid and fetch it.
	page := rec.Body.String()
	i := strings.Index(page, "/frame?id=")
	if i < 0 {
		t.Fatal("no frame link")
	}
	end := i
	for end < len(page) && page[end] != '"' {
		end++
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, page[i:end], nil))
	if rec.Code != http.StatusOK {
		t.Errorf("frame fetch status %d", rec.Code)
	}
	if _, err := io.ReadAll(rec.Result().Body); err != nil {
		t.Fatal(err)
	}
}

// TestAdminUploadTruncatedContainerRejected streams a container cut at a
// frame boundary through the upload handler: the streamed ingest must
// reject it (io.ErrUnexpectedEOF inside) with a 400 and commit nothing.
func TestAdminUploadTruncatedContainerRejected(t *testing.T) {
	srv, eng, _ := newPageServer(t, Options{})
	v := synthvid.Generate(synthvid.Movie, synthvid.Config{Width: 96, Height: 72, Frames: 8, Shots: 2, Seed: 5})
	raw, err := cvj.EncodeBytes(v.Frames, v.FPS, 0)
	if err != nil {
		t.Fatal(err)
	}
	body, ctype := multipartBody(t, "video", "cut.cvj", raw[:len(raw)-6], map[string]string{"name": "cut_00"})
	rec := postMultipart(srv, "/admin/upload", body, ctype)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	vids, _ := eng.Store().ListVideos(nil)
	for _, vi := range vids {
		if vi.Name == "cut_00" {
			t.Error("truncated upload committed")
		}
	}
}

// TestAdminUploadEmptyNameRejected uploads a valid container whose name
// field is only whitespace (so the filename fallback does not engage): the
// engine's empty-name check must surface as a 400, not a commit of an
// unaddressable video.
func TestAdminUploadEmptyNameRejected(t *testing.T) {
	srv, eng, _ := newPageServer(t, Options{})
	v := synthvid.Generate(synthvid.News, synthvid.Config{Width: 96, Height: 72, Frames: 4, Shots: 1, Seed: 6})
	raw, err := cvj.EncodeBytes(v.Frames, v.FPS, 0)
	if err != nil {
		t.Fatal(err)
	}
	body, ctype := multipartBody(t, "video", "clip.cvj", raw, map[string]string{"name": "   "})
	rec := postMultipart(srv, "/admin/upload", body, ctype)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "empty video name") {
		t.Errorf("body %q does not name the fault", rec.Body.String())
	}
	if n, _ := eng.Store().CountVideos(nil); n != 1 {
		t.Errorf("videos after rejected upload = %d, want 1", n)
	}
}

// TestAdminUploadOverLimit413 shrinks the upload cap and sends a valid
// container over it: the response must be 413 and name the limit, not a
// "missing video upload" 400.
func TestAdminUploadOverLimit413(t *testing.T) {
	const maxUploadBytes = 4096
	srv, eng, _ := newPageServer(t, Options{MaxUploadBytes: maxUploadBytes})
	v := synthvid.Generate(synthvid.Movie, synthvid.Config{Width: 96, Height: 72, Frames: 12, Shots: 3, Seed: 7})
	raw, err := cvj.EncodeBytes(v.Frames, v.FPS, 0)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) <= maxUploadBytes {
		t.Fatalf("container only %d bytes, need > %d", len(raw), maxUploadBytes)
	}
	body, ctype := multipartBody(t, "video", "big.cvj", raw, map[string]string{"name": "big_00"})
	rec := postMultipart(srv, "/admin/upload", body, ctype)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "4096-byte") {
		t.Errorf("body %q does not name the limit", rec.Body.String())
	}
	if n, _ := eng.Store().CountVideos(nil); n != 1 {
		t.Errorf("videos after rejected upload = %d, want 1", n)
	}
}

// TestAdminReindexSingle drives POST /admin/reindex with an id: the rows
// must be rebuilt in place (same IDs, parsable features) and the redirect
// must land home.
func TestAdminReindexSingle(t *testing.T) {
	srv, eng, res := newPageServer(t, Options{})
	before, err := eng.Store().KeyFramesOfVideo(nil, res.VideoID)
	if err != nil {
		t.Fatal(err)
	}
	rec := postForm(srv, "/admin/reindex", fmt.Sprintf("id=%d", res.VideoID))
	if rec.Code != http.StatusSeeOther {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	after, err := eng.Store().KeyFramesOfVideo(nil, res.VideoID)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("%d rows after reindex, want %d", len(after), len(before))
	}
	for i := range after {
		if after[i].ID != before[i].ID || after[i].SCH != before[i].SCH {
			t.Errorf("row %d changed identity or content across reindex", i)
		}
	}
}

// TestAdminReindexAll covers the no-id form (whole store) and method and
// id validation.
func TestAdminReindexAll(t *testing.T) {
	srv, _, _ := newPageServer(t, Options{})
	if rec := postForm(srv, "/admin/reindex", ""); rec.Code != http.StatusSeeOther {
		t.Fatalf("reindex all: status %d: %s", rec.Code, rec.Body.String())
	}

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/admin/reindex", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET reindex: status %d", rec.Code)
	}

	if rec := postForm(srv, "/admin/reindex", "id=nope"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad id: status %d", rec.Code)
	}

	// A well-formed id naming no stored video is an addressing failure,
	// not a malformed request: 404, not 400.
	if rec := postForm(srv, "/admin/reindex", "id=42"); rec.Code != http.StatusNotFound {
		t.Errorf("missing video: status %d", rec.Code)
	}
}

// TestVideoPageCancelledContextStopsEarly pins the cbvrvet:ctxloop check
// in handleVideo: once the client is gone, the per-key-frame blob loop
// must bail out instead of decoding a whole video for nobody, so a
// cancelled request renders no frames.
func TestVideoPageCancelledContextStopsEarly(t *testing.T) {
	srv, _, res := newPageServer(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/video?id=%d", res.VideoID), nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if body := rec.Body.String(); strings.Contains(body, "data:image/jpeg;base64,") {
		t.Error("handler rendered key frames for a cancelled request")
	}
}
