package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"cbvr/internal/core"
	"cbvr/internal/synthvid"
)

// TestStatsEndpoint pins the /api/v1/stats contract: GET-only, and after
// an ingest plus a search it reports the engine's cumulative search-work
// tally and the cell-index shape the observability surfaces (cbvrctl
// stats) rely on.
func TestStatsEndpoint(t *testing.T) {
	eng := openTestEngine(t)
	ts := httptest.NewServer(New(eng, Options{}))
	defer ts.Close()

	raw, v := testContainer(t, synthvid.Cartoon, 700, 16)
	var ir core.IngestResult
	if resp, body := doJSON(t, "POST", ts.URL+"/api/v1/ingest?name=statsclip", bytes.NewReader(raw), &ir); resp.StatusCode != 200 {
		t.Fatalf("ingest: %d %s", resp.StatusCode, body)
	}

	req, _ := http.NewRequest("POST", ts.URL+"/api/v1/search", bytes.NewReader(queryJPEG(t, v)))
	req.Header.Set("Content-Type", "image/jpeg")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("search: %d", resp.StatusCode)
	}

	var stats struct {
		Search struct {
			Searches int64 `json:"searches"`
			BaseRows int64 `json:"base_rows"`
			RowEvals int64 `json:"row_evals"`
		} `json:"search"`
		Cells struct {
			Shards      int `json:"shards"`
			IndexedRows int `json:"indexed_rows"`
		} `json:"cells"`
	}
	if resp, body := doJSON(t, "GET", ts.URL+"/api/v1/stats", nil, &stats); resp.StatusCode != 200 {
		t.Fatalf("stats: %d %s", resp.StatusCode, body)
	}
	if stats.Search.Searches < 1 || stats.Search.RowEvals < 1 {
		t.Fatalf("tally missing the search just served: %+v", stats.Search)
	}
	if stats.Cells.Shards < 1 {
		t.Fatalf("cell stats report %d shards", stats.Cells.Shards)
	}

	if resp, _ := doJSON(t, "POST", ts.URL+"/api/v1/stats", nil, nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /api/v1/stats: %d, want 405", resp.StatusCode)
	}
}
