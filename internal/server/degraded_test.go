package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"cbvr/internal/core"
	"cbvr/internal/synthvid"
	"cbvr/internal/vstore"
	"cbvr/internal/vstore/faultfs"
)

// TestServerDegradedMode drives the whole degraded-mode contract through
// the HTTP surface: a write fault mid-commit flips /healthz from ok to
// degraded, every mutation fails fast with 503 + Retry-After, and search
// keeps returning correct results from the committed snapshot.
func TestServerDegradedMode(t *testing.T) {
	ffs := faultfs.New()
	eng, err := core.Open("degraded.db", core.Options{
		Store: vstore.Options{FS: ffs},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ts := httptest.NewServer(New(eng, Options{}))
	defer ts.Close()

	// Healthy baseline: one resident video, healthz ok.
	raw, v := testContainer(t, synthvid.Cartoon, 500, 12)
	var res core.IngestResult
	if resp, body := doJSON(t, "POST", ts.URL+"/api/v1/ingest?name=resident", bytes.NewReader(raw), &res); resp.StatusCode != 200 {
		t.Fatalf("seed ingest: %d %s", resp.StatusCode, body)
	}
	var health map[string]any
	if resp, _ := doJSON(t, "GET", ts.URL+"/healthz", nil, &health); resp.StatusCode != 200 || health["status"] != "ok" {
		t.Fatalf("healthy healthz: %d %v", resp.StatusCode, health)
	}

	// Poison the store: fail the next WAL append, then trigger a commit by
	// deleting through the API. The delete must surface as a 503 with
	// Retry-After, not a silent success or a 500.
	fired := false
	ffs.SetInjector(func(op faultfs.Op) faultfs.Action {
		if !fired && op.Kind == faultfs.OpWrite && op.Name == "degraded.db.wal" {
			fired = true
			return faultfs.ActErr
		}
		return faultfs.ActNone
	})
	resp, body := doJSON(t, "DELETE", ts.URL+"/api/v1/videos?id="+itoa(res.VideoID), nil, nil)
	ffs.SetInjector(nil)
	if resp.StatusCode != 503 {
		t.Fatalf("delete under WAL fault: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded delete 503 missing Retry-After")
	}
	if eng.Degraded() == nil {
		t.Fatal("engine not degraded after WAL fault")
	}

	// healthz reflects the transition.
	if resp, _ := doJSON(t, "GET", ts.URL+"/healthz", nil, &health); resp.StatusCode != 503 ||
		health["status"] != "degraded" || health["reason"] == "" || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("degraded healthz: %d %v retry-after=%q", resp.StatusCode, health, resp.Header.Get("Retry-After"))
	}

	// Every mutation fails fast with 503 + Retry-After.
	for _, m := range []struct{ method, url string }{
		{"POST", ts.URL + "/api/v1/ingest?name=rejected"},
		{"DELETE", ts.URL + "/api/v1/videos?id=" + itoa(res.VideoID)},
		{"POST", ts.URL + "/api/v1/reindex"},
	} {
		resp, body := doJSON(t, m.method, m.url, bytes.NewReader(raw), nil)
		if resp.StatusCode != 503 {
			t.Fatalf("%s %s while degraded: %d %s", m.method, m.url, resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s %s while degraded: 503 missing Retry-After", m.method, m.url)
		}
	}

	// Reads keep working: the listing still shows the resident video (the
	// failed delete rolled back) and search still ranks it first.
	var vids videosResp
	if resp, body := doJSON(t, "GET", ts.URL+"/api/v1/videos", nil, &vids); resp.StatusCode != 200 {
		t.Fatalf("videos while degraded: %d %s", resp.StatusCode, body)
	}
	if len(vids.Videos) != 1 || vids.Videos[0].ID != res.VideoID {
		t.Fatalf("degraded listing = %+v, want the resident video", vids.Videos)
	}
	var sr searchResp
	sreq, _ := doJSON(t, "POST", ts.URL+"/api/v1/search?k=3", bytes.NewReader(queryJPEG(t, v)), &sr)
	if sreq.StatusCode != 200 {
		t.Fatalf("search while degraded: %d", sreq.StatusCode)
	}
	if len(sr.Matches) == 0 || sr.Matches[0].VideoID != res.VideoID {
		t.Fatalf("degraded search matches = %+v, want the resident video on top", sr.Matches)
	}
}

func itoa(v int64) string {
	return strconv.FormatInt(v, 10)
}

// TestWebUIDegradedMode: once the store is poisoned read-only, the HTML
// admin mutations answer 503 + Retry-After while the listing pages keep
// rendering from the committed snapshot.
func TestWebUIDegradedMode(t *testing.T) {
	ffs := faultfs.New()
	eng, err := core.Open("web.db", core.Options{Store: vstore.Options{FS: ffs}})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	v := synthvid.Generate(synthvid.Cartoon, synthvid.Config{Width: 96, Height: 72, Frames: 10, Shots: 2, Seed: 3})
	res, err := eng.IngestFramesCtx(context.Background(), "cartoon_00", v.Frames, v.FPS)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng, Options{})

	// Poison via a WAL write fault on a delete attempt.
	fired := false
	ffs.SetInjector(func(op faultfs.Op) faultfs.Action {
		if !fired && op.Kind == faultfs.OpWrite && op.Name == "web.db.wal" {
			fired = true
			return faultfs.ActErr
		}
		return faultfs.ActNone
	})
	form := fmt.Sprintf("id=%d", res.VideoID)
	rec := postForm(srv, "/admin/delete", form)
	ffs.SetInjector(nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("delete under WAL fault: %d %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("degraded delete 503 missing Retry-After")
	}

	// Sticky: every admin mutation fails the same way without any fault armed.
	for _, path := range []string{"/admin/delete", "/admin/upload?name=rejected", "/admin/reindex"} {
		rec = postForm(srv, path, form)
		if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
			t.Fatalf("%s while degraded: %d retry-after=%q", path, rec.Code, rec.Header().Get("Retry-After"))
		}
	}

	// Reads keep rendering: the home page still lists the resident video.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "cartoon_00") {
		t.Fatalf("home page while degraded: %d", rec.Code)
	}
}
