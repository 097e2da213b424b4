package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"cbvr/internal/admission"
	"cbvr/internal/core"
	"cbvr/internal/synthvid"
	"cbvr/internal/vstore"
	"cbvr/internal/vstore/faultfs"
)

// TestHealthzStateTransitions walks /healthz through all four states —
// ok → browned-out → shedding → ok → degraded — by steering the admission
// controller and the store, pinning status code, status string and
// Retry-After presence at each step.
func TestHealthzStateTransitions(t *testing.T) {
	ffs := faultfs.New()
	eng, err := core.Open("healthz.db", core.Options{Store: vstore.Options{FS: ffs}})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	adm := admission.Config{ShedWindow: 200 * time.Millisecond, LatencyWindow: 200 * time.Millisecond}
	adm.Limit[admission.Search] = 2
	srv := New(eng, Options{Admission: adm})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	raw, _ := testContainer(t, synthvid.Cartoon, 700, 8)
	var res ingestResp
	if resp, body := doJSON(t, "POST", ts.URL+"/api/v1/ingest?name=resident", bytes.NewReader(raw), &res); resp.StatusCode != 200 {
		t.Fatalf("seed ingest: %d %s", resp.StatusCode, body)
	}

	checkState := func(wantCode int, wantStatus string, wantRetryAfter bool) {
		t.Helper()
		var health map[string]any
		resp, body := doJSON(t, "GET", ts.URL+"/healthz", nil, &health)
		if resp.StatusCode != wantCode || health["status"] != wantStatus {
			t.Fatalf("healthz = %d %s, want %d %q", resp.StatusCode, body, wantCode, wantStatus)
		}
		if got := resp.Header.Get("Retry-After") != ""; got != wantRetryAfter {
			t.Fatalf("healthz %q Retry-After present=%v, want %v", wantStatus, got, wantRetryAfter)
		}
		if _, ok := health["brownout"].(float64); !ok {
			t.Fatalf("healthz %q missing numeric brownout level: %s", wantStatus, body)
		}
	}

	checkState(200, "ok", false)

	// Saturate search past the 75% occupancy knee: 2 slots held + 1 queued
	// waiter pushes the load level to 1 — browned-out, but nothing has been
	// refused yet.
	ctl := srv.adm
	t1, err := ctl.Acquire(context.Background(), admission.Search)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := ctl.Acquire(context.Background(), admission.Search)
	if err != nil {
		t.Fatal(err)
	}
	queued, queuedCancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if tk, err := ctl.Acquire(queued, admission.Search); err == nil {
			tk.Release()
		}
	}()
	waitFor(t, time.Second, func() bool { return ctl.Snapshot().Classes[admission.Search].Queued == 1 })
	checkState(200, "browned-out", false)

	// The first refusal flips the state to shedding (503 + Retry-After):
	// reindex sheds at level ≥ 0.5 and the level is pinned at 1.
	if _, err := ctl.Acquire(context.Background(), admission.Reindex); err == nil {
		t.Fatal("reindex admitted at load level 1")
	}
	checkState(503, "shedding", true)

	// Pressure clears: release everything, let the shed and latency windows
	// lapse, and the state returns to plain ok.
	queuedCancel()
	wg.Wait()
	t1.Release()
	t2.Release()
	waitFor(t, 2*time.Second, func() bool {
		snap := ctl.Snapshot()
		return !snap.Shedding && snap.Level == 0
	})
	checkState(200, "ok", false)

	// A write fault degrades the store: healthz reports it with 503 +
	// Retry-After, trumping the (clear) load state.
	fired := false
	ffs.SetInjector(func(op faultfs.Op) faultfs.Action {
		if !fired && op.Kind == faultfs.OpWrite && op.Name == "healthz.db.wal" {
			fired = true
			return faultfs.ActErr
		}
		return faultfs.ActNone
	})
	if resp, _ := doJSON(t, "DELETE", ts.URL+"/api/v1/videos?id="+itoa(res.VideoID), nil, nil); resp.StatusCode != 503 {
		t.Fatalf("poisoning delete: %d", resp.StatusCode)
	}
	ffs.SetInjector(nil)
	checkState(503, "degraded", true)
}

// TestShedFailsFastWithComputedRetryAfter pins the shed latency contract:
// with the single ingest slot wedged, the refusal must arrive in under
// 50ms carrying a Retry-After computed from observed service times — and
// both previously hard-coded surfaces (ingest capacity, degraded 503s)
// must now produce integer seconds ≥ 1. The HTML upload form shares the
// ingest slot and is refused the same way.
func TestShedFailsFastWithComputedRetryAfter(t *testing.T) {
	eng := openTestEngine(t)
	srv := New(eng, Options{Admission: ingestLimit(1)})
	admitted := make(chan string, 1)
	srv.admitHook = func(name string) { admitted <- name }
	ts := httptest.NewServer(srv)
	defer ts.Close()

	raw, _ := testContainer(t, synthvid.Cartoon, 710, 8)
	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		doJSON(t, "POST", ts.URL+"/api/v1/ingest?name=slow", pr, nil)
	}()
	<-admitted

	form, formType := multipartBody(t, "video", "shed.cvj", raw, map[string]string{"name": "shed"})
	for _, route := range []struct {
		url, ctype string
		body       []byte
	}{
		{"/api/v1/ingest?name=shed", "", raw},
		{"/admin/upload", formType, form.Bytes()},
	} {
		start := time.Now()
		resp, body := doTyped(t, "POST", ts.URL+route.url, route.ctype, bytes.NewReader(route.body), nil)
		elapsed := time.Since(start)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s: shed ingest: %d %s", route.url, resp.StatusCode, body)
		}
		if elapsed > 50*time.Millisecond {
			t.Fatalf("%s: shed took %v, want < 50ms", route.url, elapsed)
		}
		ra := resp.Header.Get("Retry-After")
		sec, err := strconv.Atoi(ra)
		if err != nil || sec < 1 {
			t.Fatalf("%s: shed Retry-After = %q, want integer seconds >= 1", route.url, ra)
		}
	}

	if _, err := pw.Write(raw); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	<-done
}

// TestSearchDeadlineThroughAPI drives deadline propagation end to end: a
// 1ms client-supplied deadline expires mid-request and surfaces as 503
// (statusOf maps context.DeadlineExceeded to it), the response echoes
// the applied deadline, an oversized override is capped at MaxDeadline,
// and an unhurried search on the same server still serves. The HTML
// search form runs under the same deadline and reports its brownout level.
func TestSearchDeadlineThroughAPI(t *testing.T) {
	eng := openTestEngine(t)
	ts := httptest.NewServer(New(eng, Options{MaxDeadline: 5 * time.Second}))
	defer ts.Close()

	raw, v := testContainer(t, synthvid.Cartoon, 720, 16)
	if resp, body := doJSON(t, "POST", ts.URL+"/api/v1/ingest?name=clip", bytes.NewReader(raw), nil); resp.StatusCode != 200 {
		t.Fatalf("seed ingest: %d %s", resp.StatusCode, body)
	}
	qjpeg := queryJPEG(t, v)
	form, formType := multipartBody(t, "image", "q.jpg", qjpeg, map[string]string{"k": "5"})

	for _, route := range []struct {
		url, ctype string
		body       []byte
	}{
		{"/api/v1/search?k=5", "", qjpeg},
		{"/search", formType, form.Bytes()},
	} {
		search := func(deadline string) *http.Response {
			t.Helper()
			req, err := http.NewRequest("POST", ts.URL+route.url, bytes.NewReader(route.body))
			if err != nil {
				t.Fatal(err)
			}
			if route.ctype != "" {
				req.Header.Set("Content-Type", route.ctype)
			}
			if deadline != "" {
				req.Header.Set(DeadlineHeader, deadline)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return resp
		}

		resp := search("1")
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s: 1ms-deadline search: %d, want 503", route.url, resp.StatusCode)
		}
		if got := resp.Header.Get(DeadlineHeader); got != "1" {
			t.Fatalf("%s: deadline echo = %q, want 1", route.url, got)
		}

		// An override past the cap is clamped, and the echo shows the cap.
		// 9300000000000 ms overflows time.Duration when converted, so it
		// must be clamped before the conversion.
		for _, over := range []string{"3600000", "9300000000000"} {
			resp = search(over)
			if got := resp.Header.Get(DeadlineHeader); got != "5000" {
				t.Fatalf("%s: capped deadline echo for %s = %q, want 5000", route.url, over, got)
			}
			if resp.StatusCode != 200 {
				t.Fatalf("%s: capped deadline %s: %d, want 200", route.url, over, resp.StatusCode)
			}
		}

		resp = search("")
		if resp.StatusCode != 200 || resp.Header.Get(DeadlineHeader) == "" || resp.Header.Get(BrownoutHeader) == "" {
			t.Fatalf("%s: unhurried search: %d, %s=%q, %s=%q", route.url, resp.StatusCode,
				DeadlineHeader, resp.Header.Get(DeadlineHeader), BrownoutHeader, resp.Header.Get(BrownoutHeader))
		}
	}

	var sr searchResp
	if resp, body := doJSON(t, "POST", ts.URL+"/api/v1/search?k=5", bytes.NewReader(qjpeg), &sr); resp.StatusCode != 200 || len(sr.Matches) == 0 {
		t.Fatalf("unhurried search after deadline storm: %d %s", resp.StatusCode, body)
	}
}

// stallingReader yields a prefix, then blocks until released — the shape
// of a slow-loris upload: the connection is alive, bytes are not coming.
type stallingReader struct {
	data    []byte
	off     int
	limit   int
	release chan struct{}
}

func (s *stallingReader) Read(p []byte) (int, error) {
	if s.off >= s.limit {
		<-s.release
		return 0, io.EOF
	}
	n := copy(p, s.data[s.off:s.limit])
	s.off += n
	return n, nil
}

// TestBodyStallWatchdogCutsSlowLoris wedges an upload that sends half the
// container and then stalls: the per-read watchdog must cut it with 408
// within a few stall windows — freeing the admission slot — and a healthy
// upload must succeed immediately afterwards.
func TestBodyStallWatchdogCutsSlowLoris(t *testing.T) {
	eng := openTestEngine(t)
	srv := New(eng, Options{Admission: ingestLimit(1), BodyStallTimeout: 150 * time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	raw, _ := testContainer(t, synthvid.Cartoon, 730, 8)
	sr := &stallingReader{data: raw, limit: len(raw) / 2, release: make(chan struct{})}
	defer close(sr.release)

	start := time.Now()
	resp, body := doJSON(t, "POST", ts.URL+"/api/v1/ingest?name=loris", sr, nil)
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("stalled upload: %d %s, want 408", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("watchdog took %v to cut a 150ms stall", elapsed)
	}

	var ir ingestResp
	if resp, body := doJSON(t, "POST", ts.URL+"/api/v1/ingest?name=healthy", bytes.NewReader(raw), &ir); resp.StatusCode != 200 {
		t.Fatalf("upload after watchdog cut: %d %s", resp.StatusCode, body)
	}
}

// TestStatsReportsOverloadView checks /api/v1/stats now carries the
// admission snapshot (per-class occupancy and shed counters) and the
// engine brownout level alongside the search tally.
func TestStatsReportsOverloadView(t *testing.T) {
	eng := openTestEngine(t)
	ts := httptest.NewServer(New(eng, Options{}))
	defer ts.Close()

	var stats struct {
		Admission struct {
			Level   float64 `json:"level"`
			Classes []struct {
				Class string `json:"class"`
				Limit int    `json:"limit"`
			} `json:"classes"`
		} `json:"admission"`
		Brownout *float64 `json:"brownout"`
	}
	if resp, body := doJSON(t, "GET", ts.URL+"/api/v1/stats", nil, &stats); resp.StatusCode != 200 {
		t.Fatalf("stats: %d %s", resp.StatusCode, body)
	}
	if len(stats.Admission.Classes) != int(admission.NumClasses) {
		t.Fatalf("stats lists %d admission classes, want %d", len(stats.Admission.Classes), admission.NumClasses)
	}
	for _, c := range stats.Admission.Classes {
		if c.Limit <= 0 {
			t.Fatalf("class %s has non-positive limit %d", c.Class, c.Limit)
		}
	}
	if stats.Brownout == nil {
		t.Fatal("stats missing brownout level")
	}
}

// waitFor polls cond until it holds or the budget lapses.
func waitFor(t *testing.T, budget time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(budget)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within budget")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// fakeClock is a hand-stepped admission clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// TestBrownoutHeaderIsTicketLevel checks each search response's
// BrownoutHeader is the level its admission ticket carried — the level
// Snapshot reports at the instant of the grant, under a frozen clock — for
// a direct admission and for a search granted from the queue, and that the
// engine ran the search at that level.
func TestBrownoutHeaderIsTicketLevel(t *testing.T) {
	eng := openTestEngine(t)
	raw, v := testContainer(t, synthvid.Sports, 720, 8)
	if _, err := eng.IngestVideoStreamCtx(context.Background(), "resident", bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	qjpeg := queryJPEG(t, v)
	clk := &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
	cfg := admission.Config{LatencyBudget: time.Second, LatencyWindow: 10 * time.Second, MaxWait: time.Minute, Now: clk.now}
	cfg.Limit[admission.Search] = 1
	cfg.Queue[admission.Search] = 1
	srv := New(eng, Options{Admission: cfg})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	search := func() string {
		resp, body := doJSON(t, "POST", ts.URL+"/api/v1/search?k=5", bytes.NewReader(qjpeg), nil)
		if resp.StatusCode != 200 {
			t.Errorf("search: %d %s", resp.StatusCode, body)
		}
		return resp.Header.Get(BrownoutHeader)
	}
	level := func(lvl float64) string { return strconv.FormatFloat(lvl, 'f', 3, 64) }
	direct := func(want string) {
		t.Helper()
		if snap := level(srv.adm.Snapshot().Level); snap != want {
			t.Fatalf("Snapshot level %s before a direct admission, want %s", snap, want)
		}
		if got := search(); got != want {
			t.Fatalf("direct admission: %s = %q, want %q", BrownoutHeader, got, want)
		}
	}
	browned := eng.SearchTally().BrownedSearches

	direct("0.000")

	// Hold the only search slot so the next search queues; then a 1.5s
	// search completes and hands it the slot at level 0.5 (the p95
	// component), not the level 1 of the moment it queued.
	held, err := srv.adm.Acquire(context.Background(), admission.Search)
	if err != nil {
		t.Fatal(err)
	}
	header := make(chan string)
	go func() { header <- search() }()
	waitFor(t, 5*time.Second, func() bool { return srv.adm.Snapshot().Classes[admission.Search].Queued == 1 })
	if got := level(srv.adm.Snapshot().Level); got != "1.000" {
		t.Fatalf("level with a search queued behind the held slot = %s, want 1.000", got)
	}
	clk.advance(1500 * time.Millisecond)
	held.Release()
	if got := <-header; got != "0.500" {
		t.Fatalf("queued search: %s = %q, want 0.500", BrownoutHeader, got)
	}

	direct("0.500")
	if got := eng.SearchTally().BrownedSearches - browned; got != 2 {
		t.Fatalf("engine ran %d browned searches, want the 2 admitted at level 0.5", got)
	}

	clk.advance(time.Minute)
	direct("0.000")
}
