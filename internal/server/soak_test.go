package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cbvr/internal/admission"
	"cbvr/internal/core"
	"cbvr/internal/features"
	"cbvr/internal/imaging"
	"cbvr/internal/synthvid"
	"cbvr/internal/vstore"
	"cbvr/internal/vstore/faultfs"
)

// chaosProxy is a TCP forwarder that misbehaves on the client→server leg:
// it can stall (stop forwarding upstream while keeping the connection
// alive — a slow-loris body) or cut (sever both legs mid-stream — a
// client that vanished) after a configured number of forwarded bytes.
// The response leg always passes through untouched, so clients still see
// whatever the server managed to say.
type chaosProxy struct {
	ln     net.Listener
	target string

	// stallAfter / cutAfter apply per connection; 0 disables that vice.
	stallAfter int64
	cutAfter   int64

	wg sync.WaitGroup
}

func newChaosProxy(t *testing.T, target string, stallAfter, cutAfter int64) *chaosProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &chaosProxy{ln: ln, target: strings.TrimPrefix(target, "http://"), stallAfter: stallAfter, cutAfter: cutAfter}
	p.wg.Add(1)
	go p.accept()
	return p
}

func (p *chaosProxy) URL() string { return "http://" + p.ln.Addr().String() }

func (p *chaosProxy) Close() {
	p.ln.Close()
	p.wg.Wait()
}

func (p *chaosProxy) accept() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go p.handle(c)
	}
}

func (p *chaosProxy) handle(client net.Conn) {
	defer p.wg.Done()
	defer client.Close()
	up, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	defer up.Close()

	done := make(chan struct{}, 2)
	// Response leg: verbatim. When the server gives up on the request
	// (watchdog 408, deadline 503) the response still reaches the client.
	go func() {
		io.Copy(client, up)
		client.Close() // unblock the request-leg read
		done <- struct{}{}
	}()
	// Request leg: forward until the configured vice kicks in.
	go func() {
		defer func() { done <- struct{}{} }()
		var forwarded int64
		buf := make([]byte, 512)
		for {
			n, err := client.Read(buf)
			if n > 0 {
				w := buf[:n]
				if p.cutAfter > 0 && forwarded+int64(n) >= p.cutAfter {
					up.Write(w[:p.cutAfter-forwarded])
					client.Close()
					up.Close()
					return
				}
				if p.stallAfter > 0 && forwarded >= p.stallAfter {
					// Stall: swallow further bytes without forwarding; the
					// server's watchdog, not this loop, ends the request.
					forwarded += int64(n)
					continue
				}
				if _, werr := up.Write(w); werr != nil {
					return
				}
				forwarded += int64(n)
			}
			if err != nil {
				return
			}
		}
	}()
	<-done
}

// TestOverloadSoak is the chaos soak the resilience stack is judged by:
// a few seconds of concurrent searches, uploads, deadline storms,
// slow-loris bodies, mid-body disconnects and healthz polling against a
// store with injected I/O latency — under tight admission limits chosen
// to force real shedding. Afterwards the server must be undamaged: no
// stuck goroutines, load level back to zero, search results bit-identical
// to the single-threaded reference, store fsck-clean on reopen.
func TestOverloadSoak(t *testing.T) {
	ffs := faultfs.New()
	eng, err := core.Open("soak.db", core.Options{Store: vstore.Options{FS: ffs}})
	if err != nil {
		t.Fatal(err)
	}

	// Seed corpus: small enough that every search rides the exact path, so
	// post-soak bit-identity does not depend on the brownout level history.
	var qframe *synthvid.Video
	for i := 0; i < 3; i++ {
		raw, v := testContainer(t, synthvid.Category(i%3), int64(800+i), 12)
		if _, err := eng.IngestVideoStreamCtx(context.Background(), fmt.Sprintf("seed%02d", i), bytes.NewReader(raw)); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			qframe = v
		}
	}
	qjpeg := queryJPEG(t, qframe)

	// Tight limits so the storm really sheds; short windows so the level
	// clears quickly once the storm stops.
	adm := admission.Config{
		MaxWait:       100 * time.Millisecond,
		LatencyBudget: 50 * time.Millisecond,
		LatencyWindow: time.Second,
		ShedWindow:    500 * time.Millisecond,
	}
	adm.Limit[admission.Search] = 2
	adm.Queue[admission.Search] = 2
	adm.Limit[admission.Ingest] = 2
	srv := New(eng, Options{
		Admission:        adm,
		SearchDeadline:   2 * time.Second,
		MutateDeadline:   3 * time.Second,
		BodyStallTimeout: 300 * time.Millisecond,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// A slow disk under the store: every few reads costs 2ms.
	ffs.SetLatency(func(op faultfs.Op) time.Duration {
		if op.Kind == faultfs.OpRead && op.Index%5 == 0 {
			return 2 * time.Millisecond
		}
		return 0
	})

	stallProxy := newChaosProxy(t, ts.URL, 600, 0)
	cutProxy := newChaosProxy(t, ts.URL, 0, 900)

	tr := &http.Transport{}
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	do := func(method, url string, body io.Reader) (*http.Response, error) {
		req, err := http.NewRequest(method, url, body)
		if err != nil {
			t.Fatal(err)
		}
		return client.Do(req)
	}
	drain := func(resp *http.Response) {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// Warm every path once, then fix the goroutine baseline.
	if resp, err := do("POST", ts.URL+"/api/v1/search?k=5", bytes.NewReader(qjpeg)); err != nil {
		t.Fatal(err)
	} else {
		drain(resp)
	}
	runtime.GC()
	baseline := runtime.NumGoroutine()

	var (
		wg        sync.WaitGroup
		served    atomic.Int64
		shed429   atomic.Int64
		shed503   atomic.Int64
		badStatus atomic.Int64
		mu        sync.Mutex
		firstBad  string
	)
	noteBad := func(where string, code int, hdr http.Header) {
		badStatus.Add(1)
		mu.Lock()
		if firstBad == "" {
			firstBad = fmt.Sprintf("%s: status %d retry-after=%q", where, code, hdr.Get("Retry-After"))
		}
		mu.Unlock()
	}
	tally := func(where string, resp *http.Response) {
		switch resp.StatusCode {
		case 200:
			served.Add(1)
		case 429:
			shed429.Add(1)
			if resp.Header.Get("Retry-After") == "" {
				noteBad(where+" (429 without Retry-After)", resp.StatusCode, resp.Header)
			}
		case 503:
			shed503.Add(1)
		default:
			noteBad(where, resp.StatusCode, resp.Header)
		}
	}

	// Searchers: the bread-and-butter load.
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := do("POST", ts.URL+"/api/v1/search?k=10", bytes.NewReader(qjpeg))
				if err != nil {
					continue // connection-level casualties are the proxies' doing
				}
				tally("search", resp)
				drain(resp)
			}
		}()
	}
	// Uploaders: mutation pressure (each body is a fresh valid container).
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				raw, _ := testContainer(t, synthvid.Category((g+i)%3), int64(900+10*g+i), 8)
				resp, err := do("POST", fmt.Sprintf("%s/api/v1/ingest?name=storm%02d-%02d", ts.URL, g, i), bytes.NewReader(raw))
				if err != nil {
					continue
				}
				tally("ingest", resp)
				drain(resp)
			}
		}(g)
	}
	// Deadline storm: 1ms budgets that expire mid-flight must come back as
	// fast 503s, never hang past the deadline by much.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			req, err := http.NewRequest("POST", ts.URL+"/api/v1/search?k=10", bytes.NewReader(qjpeg))
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set(DeadlineHeader, "1")
			resp, err := client.Do(req)
			if err != nil {
				continue
			}
			if resp.StatusCode != 503 && resp.StatusCode != 429 && resp.StatusCode != 200 {
				noteBad("deadline-storm", resp.StatusCode, resp.Header)
			}
			drain(resp)
		}
	}()
	// Slow-loris uploads through the stalling proxy: headers and 600 bytes
	// arrive, then silence. The watchdog must 408 them; any response (or a
	// dead connection) is acceptable to the client side.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			raw, _ := testContainer(t, synthvid.Cartoon, int64(950+g), 8)
			for i := 0; i < 2; i++ {
				resp, err := do("POST", fmt.Sprintf("%s/api/v1/ingest?name=loris%02d", stallProxy.URL(), g), bytes.NewReader(raw))
				if err != nil {
					continue
				}
				if resp.StatusCode != 408 && resp.StatusCode != 400 && resp.StatusCode != 429 && resp.StatusCode != 503 {
					noteBad("slow-loris", resp.StatusCode, resp.Header)
				}
				drain(resp)
			}
		}(g)
	}
	// Mid-body disconnects through the cutting proxy: the server must
	// treat the truncated stream as a client error and clean up; the
	// client usually sees a transport error.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			raw, _ := testContainer(t, synthvid.Sports, int64(960+g), 8)
			for i := 0; i < 2; i++ {
				resp, err := do("POST", fmt.Sprintf("%s/api/v1/ingest?name=cut%02d", cutProxy.URL(), g), bytes.NewReader(raw))
				if err != nil {
					continue
				}
				drain(resp)
			}
		}(g)
	}
	// Healthz pollers: the status must always be one of the defined
	// states, and shedding/degraded 503s must carry Retry-After.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var health map[string]any
				resp, _ := doJSON(t, "GET", ts.URL+"/healthz", nil, &health)
				status, _ := health["status"].(string)
				switch status {
				case "ok", "browned-out":
					if resp.StatusCode != 200 {
						noteBad("healthz "+status, resp.StatusCode, resp.Header)
					}
				case "shedding", "degraded":
					if resp.StatusCode != 503 || resp.Header.Get("Retry-After") == "" {
						noteBad("healthz "+status, resp.StatusCode, resp.Header)
					}
				default:
					noteBad("healthz unknown status "+status, resp.StatusCode, resp.Header)
				}
				time.Sleep(20 * time.Millisecond)
			}
		}()
	}
	wg.Wait()

	if badStatus.Load() > 0 {
		t.Fatalf("%d out-of-contract responses during soak; first: %s", badStatus.Load(), firstBad)
	}
	if served.Load() == 0 {
		t.Fatal("soak served nothing — the storm configuration is broken")
	}
	t.Logf("soak: %d served, %d shed 429, %d shed 503", served.Load(), shed429.Load(), shed503.Load())

	// Storm over: stop injecting latency, drop the chaos conns, and wait
	// for the load signal to decay to zero.
	ffs.SetLatency(nil)
	stallProxy.Close()
	cutProxy.Close()
	waitFor(t, 10*time.Second, func() bool {
		shedding, _ := srv.adm.Shedding()
		return srv.adm.Level() == 0 && !shedding
	})

	// Exactness is restored: the API ranking is bit-identical to the
	// engine's single-threaded reference, and the response says level 0.
	img, err := imaging.DecodeJPEG(bytes.NewReader(qjpeg))
	if err != nil {
		t.Fatal(err)
	}
	planes := features.NewPlanes(img)
	want, err := eng.SearchWithSetReference(planes.ExtractAll(), core.BucketFromPlanes(planes), core.SearchOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	var sr searchResp
	resp, body := doJSON(t, "POST", ts.URL+"/api/v1/search?k=10", bytes.NewReader(qjpeg), &sr)
	if resp.StatusCode != 200 {
		t.Fatalf("post-soak search: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(BrownoutHeader); got != "0.000" {
		t.Fatalf("post-soak brownout header = %q, want 0.000", got)
	}
	if len(sr.Matches) != len(want) {
		t.Fatalf("post-soak search returned %d matches, reference %d", len(sr.Matches), len(want))
	}
	for i, m := range sr.Matches {
		w := want[i]
		if m.KeyFrameID != w.KeyFrameID || m.VideoID != w.VideoID || m.Distance != w.Distance {
			t.Fatalf("post-soak rank %d: API %+v != reference %+v", i, m, w)
		}
	}

	// Goroutine accounting: once idle conns are dropped, the count must
	// return to (near) the pre-storm baseline. On failure, dump the stacks
	// so the leak is attributable.
	tr.CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
	leakDeadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+8 {
			break
		}
		if time.Now().After(leakDeadline) {
			pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
			t.Fatalf("goroutines: %d, baseline %d — leak (stacks above)", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Shutdown and reopen: the store must come back fsck-clean.
	ts.Close()
	srv.Wait()
	if err := eng.Close(); err != nil {
		t.Fatalf("close after soak: %v", err)
	}
	db, err := vstore.Open("soak.db", &vstore.Options{FS: ffs})
	if err != nil {
		t.Fatalf("reopen after soak: %v", err)
	}
	defer db.Close()
	rep, err := vstore.Check(db)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("post-soak fsck: %v", rep.Problems)
	}
}
