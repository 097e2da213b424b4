package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cbvr/internal/synthvid"
)

// shapeOf renders a JSON document as its structure: every object's keys in
// wire order, each followed by the shape of its value, and every value
// reduced to its JSON kind (n number, s string, b bool, 0 null). Array
// elements of the same shape in a row collapse to one, so a ranking of any
// length has one shape.
func shapeOf(t *testing.T, body []byte) string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	var value func() string
	value = func() string {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("bad JSON %q: %v", body, err)
		}
		switch tok := tok.(type) {
		case json.Delim:
			var b strings.Builder
			if tok == '{' {
				b.WriteString("{")
				for dec.More() {
					key, err := dec.Token()
					if err != nil {
						t.Fatalf("bad JSON %q: %v", body, err)
					}
					b.WriteString(" " + key.(string) + ":" + value())
				}
				b.WriteString(" }")
			} else {
				b.WriteString("[")
				last := ""
				for dec.More() {
					if el := value(); el != last {
						b.WriteString(el)
						last = el
					}
				}
				b.WriteString("]")
			}
			dec.Token() // the closing delimiter
			return b.String()
		case float64:
			return "n"
		case string:
			return "s"
		case bool:
			return "b"
		default:
			return "0"
		}
	}
	return value()
}

// TestWireFormat pins the result bodies of the /api/v1 ingest, search,
// videos and reindex routes. On an empty store the bodies are compared
// whole — an empty list encodes as [], never null. After one ingest every
// object's keys are compared in wire order, so a renamed, dropped, added
// or reordered field fails here before it reaches a client.
func TestWireFormat(t *testing.T) {
	eng := openTestEngine(t)
	ts := httptest.NewServer(New(eng, Options{}))
	defer ts.Close()
	raw, v := testContainer(t, synthvid.Sports, 38, 8)
	jpeg := queryJPEG(t, v)

	call := func(method, path string, body []byte) []byte {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: %d %s", method, path, resp.StatusCode, got)
		}
		return got
	}

	for _, c := range []struct {
		method, path string
		body         []byte
		want         string
	}{
		{"POST", "/api/v1/search?k=5", jpeg, `{"matches":[]}`},
		{"GET", "/api/v1/videos", nil, `{"key_frames":0,"videos":[]}`},
		{"POST", "/api/v1/reindex", nil, `{"reindexed":[]}`},
	} {
		if got := string(call(c.method, c.path, c.body)); got != c.want+"\n" {
			t.Errorf("empty store: %s %s = %q, want %q", c.method, c.path, got, c.want+"\n")
		}
	}

	const (
		match    = "{ key_frame_id:n video_id:n video_name:s frame_index:n distance:n }"
		video    = "{ id:n name:s video_len:n do_store:s }"
		rebuilt  = "{ video_id:n video_name:s key_frames:n }"
		ingested = "{ video_id:n num_frames:n key_frame_ids:[n] }"
	)
	for _, c := range []struct {
		method, path string
		body         []byte
		want         string
	}{
		{"POST", "/api/v1/ingest?name=wire", raw, ingested},
		{"POST", "/api/v1/search?k=5", jpeg, "{ matches:[" + match + "] }"},
		{"GET", "/api/v1/videos", nil, "{ key_frames:n videos:[" + video + "] }"},
		{"POST", "/api/v1/reindex?id=1", nil, "{ reindexed:[" + rebuilt + "] }"},
		{"POST", "/api/v1/reindex", nil, "{ reindexed:[" + rebuilt + "] }"},
		{"DELETE", "/api/v1/videos?id=1", nil, "{ deleted:n }"},
	} {
		if got := shapeOf(t, call(c.method, c.path, c.body)); got != c.want {
			t.Errorf("%s %s shape:\n got %s\nwant %s", c.method, c.path, got, c.want)
		}
	}
}
