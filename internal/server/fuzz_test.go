package server

import (
	"bytes"
	"context"
	"mime"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"testing"

	"cbvr/internal/admission"
	"cbvr/internal/synthvid"
)

// FuzzRequestBody sends arbitrary body bytes to the two body-decoding
// routes, search and ingest, under a raw, a multipart (fuzzed boundary) or
// no Content-Type. Whatever arrives, the answer is a success, the client's
// fault (400) or the upload cap (413) — never a panic and never a 500,
// which would blame the server for a request it could not decode.
func FuzzRequestBody(f *testing.F) {
	eng := openTestEngine(f)
	raw, v := testContainer(f, synthvid.Cartoon, 1000, 6)
	if _, err := eng.IngestVideoStreamCtx(context.Background(), "resident", bytes.NewReader(raw)); err != nil {
		f.Fatal(err)
	}
	// One request at a time never contends, so admission must not shed on
	// a slow decode either: this target pins decoding, not overload.
	var adm admission.Config
	for c := admission.Class(0); c < admission.NumClasses; c++ {
		adm.ShedAt[c] = 2
	}
	srv := New(eng, Options{MaxUploadBytes: 64 << 10, Admission: adm})

	const (
		ctRaw uint8 = iota
		ctMultipart
		ctNone
	)
	var kOnly bytes.Buffer
	kw := multipart.NewWriter(&kOnly)
	kw.WriteField("k", "5")
	kw.Close()
	search, searchType := multipartBody(f, "image", "q.jpg", queryJPEG(f, v), map[string]string{"k": "3"})
	upload, uploadType := multipartBody(f, "video", "clip.cvj", raw, map[string]string{"name": "fuzzed"})
	boundaryOf := func(ctype string) string {
		_, params, err := mime.ParseMediaType(ctype)
		if err != nil {
			f.Fatal(err)
		}
		return params["boundary"]
	}
	f.Add(false, ctMultipart, kw.Boundary(), kOnly.Bytes())
	f.Add(false, ctMultipart, "x", []byte("--x\r\ngarbage"))
	f.Add(true, ctMultipart, "x", []byte("--x\r\ngarbage"))
	f.Add(true, ctMultipart, "x", []byte("nothing"))
	f.Add(false, ctMultipart, boundaryOf(searchType), search.Bytes())
	f.Add(true, ctMultipart, boundaryOf(uploadType), upload.Bytes())
	f.Add(true, ctRaw, "", raw)
	f.Add(false, ctNone, "", queryJPEG(f, v))

	f.Fuzz(func(t *testing.T, ingest bool, ctype uint8, boundary string, body []byte) {
		url := "/api/v1/search"
		if ingest {
			url = "/api/v1/ingest?name=fuzzed"
		}
		req := httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		switch ctype % 3 {
		case ctRaw:
			req.Header.Set("Content-Type", "application/octet-stream")
		case ctMultipart:
			req.Header.Set("Content-Type", "multipart/form-data; boundary="+boundary)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("POST %s (%d-byte body, content type %q): status %d: %s",
				url, len(body), req.Header.Get("Content-Type"), rec.Code, rec.Body.String())
		}
	})
}
