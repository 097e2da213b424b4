package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"
)

// api is the benchmark's client of one cbvr-server: a plain net/http
// client on two keep-alive connections, with no retries, so a refusal is
// a failure.
type api struct {
	base string
	hc   *http.Client

	responses atomic.Int64 // responses received, of any status
	searches  atomic.Int64 // of those, answered searches
	refused   atomic.Int64 // 429 and 503 responses
	browned   atomic.Int64 // answered searches run at a brownout level > 0
}

// shares reports the refused share of all responses and the browned-out
// share of the answered searches.
func (a *api) shares() (refused, browned float64) {
	if n := a.responses.Load(); n > 0 {
		refused = float64(a.refused.Load()) / float64(n)
	}
	if n := a.searches.Load(); n > 0 {
		browned = float64(a.browned.Load()) / float64(n)
	}
	return refused, browned
}

func newAPI(addr string) *api {
	return &api{
		base: "http://" + addr,
		hc: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
		},
	}
}

func (a *api) close() { a.hc.CloseIdleConnections() }

// do sends one request and decodes a 2xx JSON body into out.
func (a *api) do(method, path string, body []byte, out any) (http.Header, error) {
	req, err := http.NewRequest(method, a.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	resp, err := a.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	a.responses.Add(1)
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		a.refused.Add(1)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return nil, fmt.Errorf("%s %s: decode body: %w", method, path, err)
		}
	}
	return resp.Header, nil
}

// match is one row of a search response.
type match struct {
	KeyFrameID int64   `json:"key_frame_id"`
	VideoName  string  `json:"video_name"`
	Distance   float64 `json:"distance"`
}

// search posts a raw JPEG query and checks the shape of the answer: one to
// k rows (§4.2 range pruning may leave fewer than k candidates), nearest
// first.
func (a *api) search(jpeg []byte, k int) ([]match, error) {
	var out struct {
		Matches []match `json:"matches"`
	}
	hdr, err := a.do(http.MethodPost, "/api/v1/search?k="+strconv.Itoa(k), jpeg, &out)
	if err != nil {
		return nil, err
	}
	a.searches.Add(1)
	if lvl, _ := strconv.ParseFloat(hdr.Get("X-CBVR-Brownout"), 64); lvl > 0 {
		a.browned.Add(1)
	}
	if n := len(out.Matches); n == 0 || n > k {
		return nil, fmt.Errorf("search returned %d matches, want 1 to %d", n, k)
	}
	for i := 1; i < len(out.Matches); i++ {
		if out.Matches[i].Distance < out.Matches[i-1].Distance {
			return nil, fmt.Errorf("search result not sorted at rank %d", i)
		}
	}
	return out.Matches, nil
}

// ack is the server's answer to an ingest.
type ack struct {
	Name        string  `json:"-"`
	VideoID     int64   `json:"video_id"`
	NumFrames   int     `json:"num_frames"`
	KeyFrameIDs []int64 `json:"key_frame_ids"`
}

func (a *api) ingest(name string, container []byte) (ack, error) {
	out := ack{Name: name}
	_, err := a.do(http.MethodPost, "/api/v1/ingest?name="+url.QueryEscape(name), container, &out)
	if err == nil && (out.VideoID <= 0 || len(out.KeyFrameIDs) == 0) {
		err = fmt.Errorf("ingest %s acked without ids: %+v", name, out)
	}
	return out, err
}

func (a *api) reindex(id int64) error {
	var out struct {
		Reindexed []struct {
			VideoID int64 `json:"video_id"`
		} `json:"reindexed"`
	}
	_, err := a.do(http.MethodPost, "/api/v1/reindex?id="+strconv.FormatInt(id, 10), nil, &out)
	if err == nil && (len(out.Reindexed) != 1 || out.Reindexed[0].VideoID != id) {
		err = fmt.Errorf("reindex %d answered %+v", id, out)
	}
	return err
}

func (a *api) delete(id int64) error {
	_, err := a.do(http.MethodDelete, "/api/v1/videos?id="+strconv.FormatInt(id, 10), nil, nil)
	return err
}

// listing returns the names of the stored videos and the key-frame count.
func (a *api) listing() (names []string, keyFrames int, err error) {
	var out struct {
		Videos []struct {
			Name string `json:"name"`
		} `json:"videos"`
		KeyFrames int `json:"key_frames"`
	}
	if _, err := a.do(http.MethodGet, "/api/v1/videos", nil, &out); err != nil {
		return nil, 0, err
	}
	for _, v := range out.Videos {
		names = append(names, v.Name)
	}
	return names, out.KeyFrames, nil
}
