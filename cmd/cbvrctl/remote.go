// Remote mode: ingest, query and reindex can target a running cbvr-server
// (-server URL) instead of opening the database file directly. All remote
// calls share one retrying HTTP client that speaks the server's overload
// protocol: exponential backoff with jitter and Retry-After honored as the
// minimum wait. Each call decodes the server's JSON into the same result
// types the local path returns, so one printer serves both.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"cbvr"
)

// retryClient wraps http.Client with the backoff policy every remote
// subcommand shares. The sleep and jitter hooks exist for tests; zero
// values select real time and real randomness.
type retryClient struct {
	hc      *http.Client
	retries int           // attempts beyond the first
	timeout time.Duration // per-attempt budget

	// sleep waits out a backoff, returning early with the context error if
	// the context dies first. Tests swap it to record rather than wait.
	sleep func(context.Context, time.Duration) error
	// jitter maps a base backoff onto the waited duration. The default is
	// the half-jitter rule: base/2 + uniform(0, base/2), which decorrelates
	// a fleet of clients without ever waiting less than half the base.
	jitter func(time.Duration) time.Duration
}

func newRetryClient(retries int, timeout time.Duration) *retryClient {
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	return &retryClient{
		hc:      &http.Client{},
		retries: retries,
		timeout: timeout,
		sleep: func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		},
		jitter: func(base time.Duration) time.Duration {
			return base/2 + time.Duration(rng.Int63n(int64(base/2)+1))
		},
	}
}

// retryableStatus reports whether a response status warrants another
// attempt: explicit backpressure (429), and every 5xx — the server's
// overload and degraded responses (503) included.
func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code >= 500
}

// retryAfterOf parses the Retry-After header as delay seconds; 0 if
// absent or unparseable (HTTP-date form is not worth supporting here —
// the cbvr server always sends delta-seconds).
func retryAfterOf(resp *http.Response) time.Duration {
	sec, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || sec <= 0 {
		return 0
	}
	return time.Duration(sec) * time.Second
}

// do performs one logical request with retries. mkBody produces a fresh
// body per attempt (a consumed body cannot be replayed). The returned
// response is always non-retryable (2xx or a terminal 4xx); its body is
// the caller's to close.
func (c *retryClient) do(ctx context.Context, method, url string, mkBody func() (io.ReadCloser, error)) (*http.Response, error) {
	backoff := 250 * time.Millisecond
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		// The surrounding signal context ends retrying immediately: a ^C
		// must not sit out a multi-second backoff.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		body, err := mkBody()
		if err != nil {
			return nil, err
		}
		actx, cancel := context.WithTimeout(ctx, c.timeout)
		req, err := http.NewRequestWithContext(actx, method, url, body)
		if err != nil {
			body.Close()
			cancel()
			return nil, err
		}
		resp, err := c.hc.Do(req)
		var wait time.Duration
		switch {
		case err != nil:
			cancel()
			lastErr = err
		case !retryableStatus(resp.StatusCode):
			resp.Body = &cancelOnClose{ReadCloser: resp.Body, cancel: cancel}
			return resp, nil
		default:
			wait = retryAfterOf(resp)
			snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 200))
			resp.Body.Close()
			cancel()
			lastErr = fmt.Errorf("server returned %s: %s", resp.Status, snippet)
		}
		if attempt == c.retries {
			break
		}
		d := c.jitter(backoff)
		if wait > d {
			d = wait // Retry-After is a floor, not a suggestion
		}
		if err := c.sleep(ctx, d); err != nil {
			return nil, err
		}
		backoff *= 2
	}
	return nil, fmt.Errorf("giving up after %d attempts: %w", c.retries+1, lastErr)
}

// cancelOnClose ties an attempt's timeout context to the response body,
// so the per-attempt budget stops ticking only when the caller is done
// reading.
type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (c *cancelOnClose) Close() error {
	err := c.ReadCloser.Close()
	c.cancel()
	return err
}

// post performs one POST with retries and decodes a 200 response body
// into out. Any other terminal status is an error carrying the start of
// the body.
func (c *retryClient) post(ctx context.Context, url string, mkBody func() (io.ReadCloser, error), out any) error {
	resp, err := c.do(ctx, http.MethodPost, url, mkBody)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 200))
		return fmt.Errorf("server returned %s: %s", resp.Status, snippet)
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("bad server response %q: %w", raw, err)
	}
	return nil
}

// remoteIngest streams a container file to POST /api/v1/ingest. openBody
// reopens the file per attempt.
func remoteIngest(ctx context.Context, c *retryClient, server, name string, openBody func() (io.ReadCloser, error)) (*cbvr.IngestResult, error) {
	u := server + "/api/v1/ingest?name=" + url.QueryEscape(name)
	var res cbvr.IngestResult
	if err := c.post(ctx, u, openBody, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// remoteQuery posts a JPEG to POST /api/v1/search.
func remoteQuery(ctx context.Context, c *retryClient, server string, jpeg []byte, k int) ([]cbvr.Match, error) {
	url := fmt.Sprintf("%s/api/v1/search?k=%d", server, k)
	var res struct {
		Matches []cbvr.Match `json:"matches"`
	}
	if err := c.post(ctx, url, byteBody(jpeg), &res); err != nil {
		return nil, err
	}
	return res.Matches, nil
}

// remoteReindex triggers POST /api/v1/reindex, one video or the sweep.
func remoteReindex(ctx context.Context, c *retryClient, server string, id int64) ([]*cbvr.ReindexResult, error) {
	url := server + "/api/v1/reindex"
	if id != 0 {
		url += "?id=" + strconv.FormatInt(id, 10)
	}
	var res struct {
		Reindexed []*cbvr.ReindexResult `json:"reindexed"`
	}
	if err := c.post(ctx, url, byteBody(nil), &res); err != nil {
		return nil, err
	}
	return res.Reindexed, nil
}

// byteBody replays an in-memory body across attempts.
func byteBody(b []byte) func() (io.ReadCloser, error) {
	return func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(b)), nil
	}
}
