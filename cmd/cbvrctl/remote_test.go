package main

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// testRetryClient returns a client whose sleeps are recorded instead of
// waited and whose jitter is the identity, so backoff arithmetic is exact.
func testRetryClient(retries int) (*retryClient, *[]time.Duration) {
	c := newRetryClient(retries, 5*time.Second)
	waits := &[]time.Duration{}
	c.sleep = func(ctx context.Context, d time.Duration) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		*waits = append(*waits, d)
		return nil
	}
	c.jitter = func(base time.Duration) time.Duration { return base }
	return c, waits
}

// TestRetryClientRecoversFromFlakyServer pins the happy retry path: two
// shed responses, then success. The client must replay the body each
// attempt and wait at least the server's Retry-After, even when the
// exponential backoff alone would retry sooner.
func TestRetryClientRecoversFromFlakyServer(t *testing.T) {
	var hits atomic.Int32
	var bodies []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		bodies = append(bodies, string(b))
		switch hits.Add(1) {
		case 1:
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusServiceUnavailable)
		case 2:
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
		default:
			w.WriteHeader(http.StatusOK)
			w.Write([]byte(`{"ok":true}`))
		}
	}))
	defer ts.Close()

	c, waits := testRetryClient(4)
	resp, err := c.do(context.Background(), "POST", ts.URL, byteBody([]byte("payload")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("final status %d", resp.StatusCode)
	}
	if hits.Load() != 3 {
		t.Fatalf("server saw %d attempts, want 3", hits.Load())
	}
	for i, b := range bodies {
		if b != "payload" {
			t.Fatalf("attempt %d body = %q: body was not replayed", i, b)
		}
	}
	// Waits: Retry-After 2s floors the 250ms base; Retry-After 1s floors
	// the 500ms second step.
	want := []time.Duration{2 * time.Second, time.Second}
	if len(*waits) != len(want) {
		t.Fatalf("recorded waits %v, want %v", *waits, want)
	}
	for i := range want {
		if (*waits)[i] != want[i] {
			t.Fatalf("wait %d = %v, want %v (Retry-After must be the floor)", i, (*waits)[i], want[i])
		}
	}
}

// TestRetryClientExponentialBackoff pins the schedule when the server
// sends no Retry-After: 250ms, 500ms, 1s, ...
func TestRetryClientExponentialBackoff(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 3 {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	c, waits := testRetryClient(5)
	resp, err := c.do(context.Background(), "POST", ts.URL, byteBody(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	want := []time.Duration{250 * time.Millisecond, 500 * time.Millisecond, time.Second}
	if len(*waits) != len(want) {
		t.Fatalf("recorded waits %v, want %v", *waits, want)
	}
	for i := range want {
		if (*waits)[i] != want[i] {
			t.Fatalf("wait %d = %v, want %v", i, (*waits)[i], want[i])
		}
	}
}

// TestRetryClientTerminalStatusNotRetried: a 4xx that is not backpressure
// is the caller's problem; retrying it would just repeat the mistake.
func TestRetryClientTerminalStatusNotRetried(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusBadRequest)
	}))
	defer ts.Close()

	c, waits := testRetryClient(4)
	resp, err := c.do(context.Background(), "POST", ts.URL, byteBody(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 || hits.Load() != 1 || len(*waits) != 0 {
		t.Fatalf("400 handling: status %d, %d attempts, %d waits", resp.StatusCode, hits.Load(), len(*waits))
	}
}

// TestRetryClientStopsOnCancel: a dead context ends the retry loop
// immediately — ^C must not sit out the backoff schedule.
func TestRetryClientStopsOnCancel(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	c, _ := testRetryClient(10)
	calls := 0
	c.sleep = func(ctx context.Context, d time.Duration) error {
		calls++
		cancel() // the interrupt arrives mid-backoff
		return ctx.Err()
	}
	if _, err := c.do(ctx, "POST", ts.URL, byteBody(nil)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("slept %d times after cancellation", calls)
	}
}
