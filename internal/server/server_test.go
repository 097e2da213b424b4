package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cbvr/internal/admission"
	"cbvr/internal/catalog"
	"cbvr/internal/core"
	"cbvr/internal/cvj"
	"cbvr/internal/features"
	"cbvr/internal/imaging"
	"cbvr/internal/synthvid"
)

func openTestEngine(t testing.TB) *core.Engine {
	t.Helper()
	eng, err := core.Open(filepath.Join(t.TempDir(), "api.db"), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// ingestLimit is an admission config admitting n concurrent uploads.
func ingestLimit(n int) admission.Config {
	var cfg admission.Config
	cfg.Limit[admission.Ingest] = n
	return cfg
}

// testContainer encodes a deterministic synthetic clip as CVJ bytes.
func testContainer(t testing.TB, cat synthvid.Category, seed int64, frames int) ([]byte, *synthvid.Video) {
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

func queryJPEG(t testing.TB, v *synthvid.Video) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := v.Frames[0].EncodeJPEG(&buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// hugeSOFJPEG is a real 16×16 JPEG whose SOF header is patched to declare
// 30000×30000 — a few hundred bytes asking for a 900-megapixel raster.
func hugeSOFJPEG(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := imaging.New(16, 16).EncodeJPEG(&buf, 0); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	i := bytes.Index(b, []byte{0xff, 0xc0}) // SOF0: marker, length, precision, height, width
	if i < 0 {
		t.Fatal("no SOF0 marker")
	}
	binary.BigEndian.PutUint16(b[i+5:], 30000)
	binary.BigEndian.PutUint16(b[i+7:], 30000)
	return b
}

// doJSON performs a request and decodes the JSON response body.
func doJSON(t *testing.T, method, url string, body io.Reader, out any) (*http.Response, string) {
	t.Helper()
	return doTyped(t, method, url, "", body, out)
}

// doTyped is doJSON with a Content-Type header ("" sends none).
func doTyped(t *testing.T, method, url, ctype string, body io.Reader, out any) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, raw, err)
		}
	}
	return resp, string(raw)
}

// multipartBody encodes a form with the fields ahead of one file part,
// the order the upload form sends them in.
func multipartBody(t testing.TB, field, filename string, content []byte, fields map[string]string) (*bytes.Buffer, string) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for k, v := range fields {
		if err := mw.WriteField(k, v); err != nil {
			t.Fatal(err)
		}
	}
	fw, err := mw.CreateFormFile(field, filename)
	if err != nil {
		t.Fatal(err)
	}
	fw.Write(content)
	mw.Close()
	return &buf, mw.FormDataContentType()
}

// The API tests decode responses into the engine's own result types, the
// way cbvrctl does; TestWireFormat pins their wire names separately.
type searchResp struct {
	Matches []core.Match `json:"matches"`
}

type videosResp struct {
	Videos    []catalog.VideoInfo `json:"videos"`
	KeyFrames int                 `json:"key_frames"`
}

// TestServerConcurrentStress is the multi-client exercise the server layer
// exists for: four simultaneous uploads, four searching clients and one
// delete, all against one engine under -race. Every commit must land whole
// (row count == reported key-frame IDs), no search may observe a partially
// published video, and the post-storm API ranking must be bit-identical to
// the engine's retained reference search.
func TestServerConcurrentStress(t *testing.T) {
	eng := openTestEngine(t)
	// The storm deliberately saturates whatever box runs it, so disable
	// level-based shedding and give search enough slots for every client:
	// this test pins concurrency correctness; overload policy is pinned by
	// the overload tests.
	adm := admission.Config{MaxWait: time.Minute}
	adm.Limit[admission.Search] = 16
	for c := admission.Class(0); c < admission.NumClasses; c++ {
		adm.ShedAt[c] = 2
	}
	adm.Limit[admission.Ingest] = 8
	ts := httptest.NewServer(New(eng, Options{Admission: adm}))
	defer ts.Close()

	// Two resident videos: search targets and a delete victim.
	seedA, _ := testContainer(t, synthvid.Cartoon, 100, 16)
	seedB, _ := testContainer(t, synthvid.Sports, 101, 16)
	var resA, resB core.IngestResult
	if resp, body := doJSON(t, "POST", ts.URL+"/api/v1/ingest?name=residentA", bytes.NewReader(seedA), &resA); resp.StatusCode != 200 {
		t.Fatalf("seed ingest A: %d %s", resp.StatusCode, body)
	}
	if resp, body := doJSON(t, "POST", ts.URL+"/api/v1/ingest?name=residentB", bytes.NewReader(seedB), &resB); resp.StatusCode != 200 {
		t.Fatalf("seed ingest B: %d %s", resp.StatusCode, body)
	}

	_, qv := testContainer(t, synthvid.Cartoon, 100, 16)
	qjpeg := queryJPEG(t, qv)

	const ingesters = 4
	var wg sync.WaitGroup
	ingestResults := make([]core.IngestResult, ingesters)
	ingestErrs := make([]string, ingesters)
	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			raw, _ := testContainer(t, synthvid.Category(g%3), int64(200+g), 16)
			url := fmt.Sprintf("%s/api/v1/ingest?name=storm%02d", ts.URL, g)
			resp, body := doJSON(t, "POST", url, bytes.NewReader(raw), &ingestResults[g])
			if resp.StatusCode != 200 {
				ingestErrs[g] = fmt.Sprintf("status %d: %s", resp.StatusCode, body)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				var sr searchResp
				resp, body := doJSON(t, "POST", ts.URL+"/api/v1/search?k=50", bytes.NewReader(qjpeg), &sr)
				if resp.StatusCode != 200 {
					t.Errorf("search during storm: %d %s", resp.StatusCode, body)
					return
				}
				// Partial publication would surface as a video id with no
				// name (commitIngest publishes both under one lock).
				for _, m := range sr.Matches {
					if m.VideoName == "" {
						t.Errorf("match with empty video name: %+v", m)
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, body := doJSON(t, "DELETE", fmt.Sprintf("%s/api/v1/videos?id=%d", ts.URL, resB.VideoID), nil, nil)
		if resp.StatusCode != 200 {
			t.Errorf("delete during storm: %d %s", resp.StatusCode, body)
		}
	}()
	wg.Wait()
	for g, e := range ingestErrs {
		if e != "" {
			t.Fatalf("storm ingest %d: %s", g, e)
		}
	}

	// Every commit landed whole: stored rows match the reported IDs.
	var vl videosResp
	if resp, body := doJSON(t, "GET", ts.URL+"/api/v1/videos", nil, &vl); resp.StatusCode != 200 {
		t.Fatalf("list: %d %s", resp.StatusCode, body)
	}
	if len(vl.Videos) != 1+ingesters { // residentA + 4 storm videos; residentB deleted
		t.Fatalf("got %d videos, want %d", len(vl.Videos), 1+ingesters)
	}
	for g, res := range ingestResults {
		rows, err := eng.Store().KeyFramesOfVideo(nil, res.VideoID)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(res.KeyFrameIDs) {
			t.Fatalf("storm video %d: %d stored rows, response reported %d", g, len(rows), len(res.KeyFrameIDs))
		}
	}

	// Post-storm ranking through the API must be bit-identical to the
	// engine's retained single-goroutine reference search.
	var sr searchResp
	if resp, body := doJSON(t, "POST", ts.URL+"/api/v1/search?k=50", bytes.NewReader(qjpeg), &sr); resp.StatusCode != 200 {
		t.Fatalf("final search: %d %s", resp.StatusCode, body)
	}
	query, err := cvj.Decode(bytes.NewReader(seedA))
	if err != nil {
		t.Fatal(err)
	}
	planes := features.NewPlanes(query.Frames[0])
	want, err := eng.SearchWithSetReference(planes.ExtractAll(), core.BucketFromPlanes(planes), core.SearchOptions{K: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Matches) != len(want) {
		t.Fatalf("API returned %d matches, reference %d", len(sr.Matches), len(want))
	}
	for i, m := range sr.Matches {
		w := want[i]
		if m.KeyFrameID != w.KeyFrameID || m.VideoID != w.VideoID || m.Distance != w.Distance || m.FrameIndex != w.FrameIndex || m.VideoName != w.VideoName {
			t.Fatalf("rank %d: API %+v != reference %+v", i, m, w)
		}
	}
}

// TestIngestAdmissionQueue wedges the single admission slot with an upload
// whose body stalls, then verifies the next upload is turned away with 429
// and a Retry-After header — and that the slot frees once the first upload
// completes.
func TestIngestAdmissionQueue(t *testing.T) {
	eng := openTestEngine(t)
	srv := New(eng, Options{Admission: ingestLimit(1)})
	admitted := make(chan string, 4)
	srv.admitHook = func(name string) { admitted <- name }
	ts := httptest.NewServer(srv)
	defer ts.Close()

	raw, _ := testContainer(t, synthvid.Cartoon, 300, 8)
	pr, pw := io.Pipe()
	done := make(chan string, 1)
	go func() {
		var ir core.IngestResult
		resp, body := doJSON(t, "POST", ts.URL+"/api/v1/ingest?name=slow", pr, &ir)
		if resp.StatusCode != 200 {
			done <- fmt.Sprintf("slow ingest: %d %s", resp.StatusCode, body)
			return
		}
		done <- ""
	}()
	if got := <-admitted; got != "slow" {
		t.Fatalf("admitted %q, want slow", got)
	}
	// The slot is provably held; feed half the container so the holder
	// sits mid-decode while the next client knocks.
	if _, err := pw.Write(raw[:len(raw)/2]); err != nil {
		t.Fatal(err)
	}

	resp, body := doJSON(t, "POST", ts.URL+"/api/v1/ingest?name=rejected", bytes.NewReader(raw), nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second ingest while queue full: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}

	// Release the slot and verify admission recovers.
	if _, err := pw.Write(raw[len(raw)/2:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if msg := <-done; msg != "" {
		t.Fatal(msg)
	}
	if resp, body := doJSON(t, "POST", ts.URL+"/api/v1/ingest?name=after", bytes.NewReader(raw), nil); resp.StatusCode != 200 {
		t.Fatalf("ingest after slot freed: %d %s", resp.StatusCode, body)
	}
}

// TestErrorClassification drives the server's status table through the API:
// client faults are 4xx with the specific status, server faults stay 5xx.
func TestErrorClassification(t *testing.T) {
	eng := openTestEngine(t)
	ts := httptest.NewServer(New(eng, Options{MaxUploadBytes: 32 << 10}))
	defer ts.Close()
	raw, _ := testContainer(t, synthvid.Cartoon, 400, 8)
	if len(raw) >= 32<<10 {
		t.Fatalf("test container unexpectedly large: %d", len(raw))
	}
	// A valid container past the body cap: the reader consumes through the
	// limit, so the failure is the size cap (413), not a format error.
	big, _ := testContainer(t, synthvid.Cartoon, 401, 160)
	if len(big) <= 32<<10 {
		t.Fatalf("big container too small to trip the cap: %d", len(big))
	}

	// Request bodies that do not decode as the multipart form they claim
	// to be are the client's fault (400); cut or oversized, they keep
	// their own status.
	const garbageType = "multipart/form-data; boundary=x"
	var kOnly bytes.Buffer
	kw := multipart.NewWriter(&kOnly)
	kw.WriteField("k", "5")
	kw.Close()
	bigUpload, uploadType := multipartBody(t, "video", "big.cvj", big, map[string]string{"name": "big"})
	bigQuery, queryType := multipartBody(t, "image", "q.jpg", big, nil)

	cases := []struct {
		name       string
		method     string
		url        string
		body       io.Reader
		wantStatus int
		wantSubstr string
		ctype      string
	}{
		{"empty name", "POST", "/api/v1/ingest", bytes.NewReader(raw), 400, "empty video name", ""},
		{"whitespace name", "POST", "/api/v1/ingest?name=%20%20", bytes.NewReader(raw), 400, "empty video name", ""},
		{"garbage container", "POST", "/api/v1/ingest?name=x", strings.NewReader("this is not a container"), 400, "", ""},
		{"truncated container", "POST", "/api/v1/ingest?name=x", bytes.NewReader(raw[:len(raw)/2]), 400, "", ""},
		{"oversized body", "POST", "/api/v1/ingest?name=x", bytes.NewReader(big), 413, "32768-byte", ""},
		{"reindex missing id", "POST", "/api/v1/reindex?id=9999", nil, 404, "no such video", ""},
		{"delete missing id", "DELETE", "/api/v1/videos?id=9999", nil, 404, "no such video", ""},
		{"bad search method", "GET", "/api/v1/search", nil, 405, "", ""},
		{"bad ingest method", "GET", "/api/v1/ingest", nil, 405, "", ""},
		{"search not a jpeg", "POST", "/api/v1/search", strings.NewReader("nope"), 400, "", ""},
		{"search huge declared frame", "POST", "/api/v1/search", bytes.NewReader(hugeSOFJPEG(t)), 400, "pixel limit", ""},
		{"multipart search without image", "POST", "/api/v1/search", &kOnly, 400, "image", kw.FormDataContentType()},
		{"garbage multipart search", "POST", "/api/v1/search", strings.NewReader("--x\r\ngarbage"), 400, "", garbageType},
		{"garbage multipart ingest", "POST", "/api/v1/ingest?name=x", strings.NewReader("--x\r\ngarbage"), 400, "", garbageType},
		{"empty multipart ingest", "POST", "/api/v1/ingest?name=x", strings.NewReader("nothing"), 400, "", garbageType},
		{"oversized multipart ingest", "POST", "/api/v1/ingest", bigUpload, 413, "32768-byte", uploadType},
		{"oversized multipart search", "POST", "/api/v1/search", bigQuery, 413, "32768-byte", queryType},
	}
	for _, tc := range cases {
		resp, body := doTyped(t, tc.method, ts.URL+tc.url, tc.ctype, tc.body, nil)
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status %d (want %d): %s", tc.name, resp.StatusCode, tc.wantStatus, body)
		}
		if tc.wantSubstr != "" && !strings.Contains(body, tc.wantSubstr) {
			t.Errorf("%s: body %q lacks %q", tc.name, body, tc.wantSubstr)
		}
	}

	// None of the failures may have committed anything.
	vids, err := eng.Store().ListVideos(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vids) != 0 {
		t.Fatalf("failed requests left %d videos", len(vids))
	}
}

// TestAbortDiscardsInFlightIngest is the forced-shutdown path: Abort fires
// while an upload is mid-stream, raw on the API or multipart through the
// HTML upload form; the handler must answer 503, commit nothing, and
// leave the store closeable (no staged writers leak).
func TestAbortDiscardsInFlightIngest(t *testing.T) {
	eng := openTestEngine(t)
	raw, _ := testContainer(t, synthvid.Cartoon, 500, 16)
	form, formType := multipartBody(t, "video", "doomed.cvj", raw, map[string]string{"name": "doomed"})
	for _, route := range []struct {
		url, ctype string
		body       []byte
	}{
		{"/api/v1/ingest?name=doomed", "", raw},
		{"/admin/upload", formType, form.Bytes()},
	} {
		srv := New(eng, Options{})
		admitted := make(chan string, 1)
		srv.admitHook = func(name string) { admitted <- name }
		ts := httptest.NewServer(srv)

		// Send everything up to the middle of the container.
		cut := bytes.Index(route.body, raw) + len(raw)/2
		pr, pw := io.Pipe()
		done := make(chan struct {
			status int
			body   string
		}, 1)
		go func() {
			resp, body := doTyped(t, "POST", ts.URL+route.url, route.ctype, pr, nil)
			done <- struct {
				status int
				body   string
			}{resp.StatusCode, body}
		}()
		<-admitted
		if _, err := pw.Write(route.body[:cut]); err != nil {
			t.Fatal(err)
		}

		srv.Abort()
		// Feed the rest of the container so a decode blocked mid-record can
		// complete its read and hit the per-iteration cancellation check —
		// every interleaving ends in ctx.Canceled, never a read error.
		go func() {
			pw.Write(route.body[cut:])
			pw.Close()
		}()
		res := <-done
		ts.Close()
		if res.status != http.StatusServiceUnavailable {
			t.Fatalf("%s: aborted ingest: status %d body %s", route.url, res.status, res.body)
		}
		vids, err := eng.Store().ListVideos(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(vids) != 0 {
			t.Fatalf("%s: aborted ingest committed %d videos", route.url, len(vids))
		}
	}
}

// TestMultipartIngestAndSearch covers the browser-shaped request bodies:
// a multipart upload with name field + file part, and a multipart search.
func TestMultipartIngestAndSearch(t *testing.T) {
	eng := openTestEngine(t)
	ts := httptest.NewServer(New(eng, Options{}))
	defer ts.Close()

	raw, v := testContainer(t, synthvid.Cartoon, 600, 12)
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	if err := mw.WriteField("name", "mpclip"); err != nil {
		t.Fatal(err)
	}
	fw, err := mw.CreateFormFile("video", "clip.cvj")
	if err != nil {
		t.Fatal(err)
	}
	fw.Write(raw)
	mw.Close()
	req, _ := http.NewRequest("POST", ts.URL+"/api/v1/ingest", &buf)
	req.Header.Set("Content-Type", mw.FormDataContentType())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var ir core.IngestResult
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || ir.VideoID == 0 {
		t.Fatalf("multipart ingest: %d %+v", resp.StatusCode, ir)
	}

	var qbuf bytes.Buffer
	mw = multipart.NewWriter(&qbuf)
	fw, err = mw.CreateFormFile("image", "q.jpg")
	if err != nil {
		t.Fatal(err)
	}
	fw.Write(queryJPEG(t, v))
	mw.WriteField("k", "3")
	mw.Close()
	req, _ = http.NewRequest("POST", ts.URL+"/api/v1/search", &qbuf)
	req.Header.Set("Content-Type", mw.FormDataContentType())
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sr searchResp
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("multipart search: %d", resp.StatusCode)
	}
	if len(sr.Matches) == 0 || len(sr.Matches) > 3 {
		t.Fatalf("multipart search returned %d matches, want 1..3", len(sr.Matches))
	}
	if sr.Matches[0].VideoName != "mpclip" {
		t.Fatalf("top match %+v, want mpclip", sr.Matches[0])
	}
}

// TestSearchRejectsBadK pins the k contract of /api/v1/search on raw and
// multipart requests: absent or empty k ranks the default 12, and a
// present k outside 1..1000 is a 400 naming k, reported before the query
// frame is decoded.
func TestSearchRejectsBadK(t *testing.T) {
	eng := openTestEngine(t)
	ts := httptest.NewServer(New(eng, Options{}))
	defer ts.Close()
	raw, v := testContainer(t, synthvid.Cartoon, 700, 24)
	if _, err := eng.IngestVideoStreamCtx(context.Background(), "kclip", bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	qjpeg := queryJPEG(t, v)

	// post sends the fields in the query string (raw body) or as form
	// fields ahead of the image part (multipart), and returns the status,
	// the body and the match count.
	post := func(multi bool, fields map[string]string, frame []byte) (int, string, int) {
		t.Helper()
		var sr searchResp
		var resp *http.Response
		var body string
		if multi {
			form, ctype := multipartBody(t, "image", "q.jpg", frame, fields)
			resp, body = doTyped(t, "POST", ts.URL+"/api/v1/search", ctype, form, &sr)
		} else {
			q := url.Values{}
			for k, v := range fields {
				q.Set(k, v)
			}
			resp, body = doJSON(t, "POST", ts.URL+"/api/v1/search?"+q.Encode(), bytes.NewReader(frame), &sr)
		}
		return resp.StatusCode, body, len(sr.Matches)
	}
	for _, multi := range []bool{false, true} {
		for _, fields := range []map[string]string{nil, {"k": ""}} {
			if code, body, n := post(multi, fields, qjpeg); code != 200 || n == 0 || n > 12 {
				t.Errorf("multipart=%v %v: status %d, %d matches: %s", multi, fields, code, n, body)
			}
		}
		for _, bad := range []string{"0", "-3", "abc", "5000"} {
			fields := map[string]string{"k": bad}
			if code, body, _ := post(multi, fields, qjpeg); code != 400 || !strings.Contains(body, "k must be an integer in 1..1000") {
				t.Errorf("multipart=%v k=%q: status %d: %s", multi, bad, code, body)
			}
			// The k check runs before the frame is decoded.
			if code, body, _ := post(multi, fields, []byte("not a jpeg")); code != 400 || !strings.Contains(body, "k must be") {
				t.Errorf("multipart=%v k=%q, undecodable frame: status %d: %s", multi, bad, code, body)
			}
		}
	}
}

// TestMultipartIngestCancelledContext pins the cbvrvet:ctxloop fix in
// handleIngest's part walk: a request whose context is already
// cancelled must be refused (503, context classification) before any
// multipart part is consumed or anything is ingested.
func TestMultipartIngestCancelledContext(t *testing.T) {
	eng := openTestEngine(t)
	srv := New(eng, Options{})

	raw, _ := testContainer(t, synthvid.Cartoon, 601, 8)
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	mw.WriteField("name", "deadclient")
	fw, err := mw.CreateFormFile("video", "clip.cvj")
	if err != nil {
		t.Fatal(err)
	}
	fw.Write(raw)
	mw.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/api/v1/ingest", &buf).WithContext(ctx)
	req.Header.Set("Content-Type", mw.FormDataContentType())
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled ingest: status %d, want 503: %s", rec.Code, rec.Body.String())
	}

	// Nothing may have been committed for the dead client.
	vids, err := eng.Store().ListVideos(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vids) != 0 {
		t.Fatalf("cancelled ingest left %d video(s) behind", len(vids))
	}
}
