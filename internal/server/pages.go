package server

// The paper's HTML pages (Figs. 2, 9, 10): the query form and store
// listing, the result grid, the video page with its key frames, and the
// administrator's upload, delete and reindex forms. The result grid and
// the three form posts are the API's search, ingest, delete and reindex
// handlers with a page or a 303 as their success. The read pages below
// skip admission like GET /api/v1/videos: admitting sub-millisecond
// thumbnail reads as Search would skew the search service-time average
// that prices Retry-After.

import (
	"bytes"
	"fmt"
	"html/template"
	"io"
	"net/http"
	"strconv"

	"cbvr/internal/admission"
	"cbvr/internal/catalog"
	"cbvr/internal/core"
)

var pageTmpl = template.Must(template.New("page").Parse(`<!doctype html>
<html><head><title>CBVR — Content Based Video Retrieval</title>
<style>
body{font-family:sans-serif;margin:2em;background:#fafafa}
h1{color:#234}
.grid{display:flex;flex-wrap:wrap;gap:12px}
.card{border:1px solid #ccc;background:#fff;padding:8px;border-radius:4px;text-align:center}
.card img{display:block;margin-bottom:4px}
.dist{color:#666;font-size:0.8em}
table{border-collapse:collapse}
td,th{border:1px solid #ccc;padding:4px 10px}
form{margin:1em 0}
</style></head><body>
<h1>Content Based Video Retrieval</h1>
{{block "body" .}}{{end}}
</body></html>`))

// The upload form puts "name" before the file input: browsers send parts
// in document order, and ingest reads a name only ahead of the video.
var homeTmpl = template.Must(template.Must(pageTmpl.Clone()).Parse(`{{define "body"}}
<h2>Query by example frame</h2>
<form action="/search" method="POST" enctype="multipart/form-data">
<input type="file" name="image" accept="image/jpeg" required>
<input type="number" name="k" value="12" min="1" max="1000">
<button type="submit">Search</button>
</form>
<h2>Video store ({{len .Videos}} videos, {{.KeyFrames}} key frames)</h2>
<table><tr><th>V_ID</th><th>V_NAME</th><th>bytes</th><th></th><th></th></tr>
{{range .Videos}}<tr><td>{{.ID}}</td><td><a href="/video?id={{.ID}}">{{.Name}}</a></td><td>{{.VideoLen}}</td>
<td><form action="/admin/delete" method="POST" style="margin:0"><input type="hidden" name="id" value="{{.ID}}"><button>delete</button></form></td>
<td><form action="/admin/reindex" method="POST" style="margin:0"><input type="hidden" name="id" value="{{.ID}}"><button>reindex</button></form></td></tr>{{end}}
</table>
<form action="/admin/reindex" method="POST"><button>Reindex all videos</button></form>
<h2>Admin: upload video (CVJ container)</h2>
<form action="/admin/upload" method="POST" enctype="multipart/form-data">
name: <input type="text" name="name"> <input type="file" name="video" required>
<button type="submit">Upload</button>
</form>
{{end}}`))

var searchTmpl = template.Must(template.Must(pageTmpl.Clone()).Parse(`{{define "body"}}
<h2>Results ({{len .Matches}})</h2>
<p><a href="/">new query</a></p>
<div class="grid">
{{range .Matches}}
<div class="card">
<a href="/video?id={{.VideoID}}"><img src="/frame?id={{.KeyFrameID}}" alt="key frame {{.KeyFrameID}}" width="160"></a>
<div>{{.VideoName}} #{{.FrameIndex}}</div>
<div class="dist">d = {{printf "%.4f" .Distance}}</div>
</div>
{{end}}
</div>
{{end}}`))

var videoTmpl = template.Must(template.Must(pageTmpl.Clone()).Parse(`{{define "body"}}
<h2>{{.Info.Name}} (video {{.Info.ID}})</h2>
<p><a href="/">back</a> · <a href="/download?id={{.Info.ID}}">download container</a></p>
<div class="grid">
{{range .Frames}}
<div class="card">
<img src="/frame?id={{.ID}}" width="160" alt="frame {{.FrameIndex}}">
<div>frame #{{.FrameIndex}}</div>
<div class="dist">bucket [{{.Min}},{{.Max}}] · {{.MajorRegions}} major regions</div>
</div>
{{end}}
</div>
{{end}}`))

// handleHome serves the query form and the store listing; every path no
// other route claims lands here and gets 404.
func (s *Server) handleHome(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	if !readOnly(w, r) {
		return
	}
	vids, nk, ok := s.listing(w)
	if !ok {
		return
	}
	s.render(w, homeTmpl, map[string]any{"Videos": vids, "KeyFrames": nk})
}

// renderResults writes a search's success as the thumbnail grid.
func (s *Server) renderResults(w http.ResponseWriter, _ *http.Request, matches []core.Match) {
	s.render(w, searchTmpl, map[string]any{"Matches": matches})
}

// handleVideo serves a video page: every key frame, as a /frame link like
// the result grid's, with its §4.2 range bucket and major-region count
// (Fig. 10). It reads the rows only, never an image blob.
func (s *Server) handleVideo(w http.ResponseWriter, r *http.Request) {
	if !readOnly(w, r) {
		return
	}
	id, ok := parseID(w, r.URL.Query().Get("id"))
	if !ok {
		return
	}
	info, found, err := s.eng.Store().GetVideoInfo(nil, id)
	if err != nil {
		s.writeErr(w, err, admission.Search)
		return
	}
	if !found {
		http.NotFound(w, r)
		return
	}
	kfs, err := s.eng.Store().KeyFramesOfVideo(nil, id)
	if err != nil {
		s.writeErr(w, err, admission.Search)
		return
	}
	s.render(w, videoTmpl, map[string]any{"Info": info, "Frames": kfs})
}

// handleFrame serves one key frame's JPEG bytes.
func (s *Server) handleFrame(w http.ResponseWriter, r *http.Request) {
	if !readOnly(w, r) {
		return
	}
	id, ok := parseID(w, r.URL.Query().Get("id"))
	if !ok {
		return
	}
	img, found, err := s.eng.Store().KeyFrameImage(nil, id)
	if err != nil {
		s.writeErr(w, err, admission.Search)
		return
	}
	if !found {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "image/jpeg")
	w.Write(img)
}

// handleDownload streams a video's stored CVJ container with
// Content-Length from the row: HEAD reads no chain, GET holds one copy
// buffer. A read failing after the first byte leaves the body short of
// Content-Length, which the client sees as a truncated download.
func (s *Server) handleDownload(w http.ResponseWriter, r *http.Request) {
	if !readOnly(w, r) {
		return
	}
	id, ok := parseID(w, r.URL.Query().Get("id"))
	if !ok {
		return
	}
	cr, found, err := s.eng.Store().OpenContainer(id, catalog.VideoContainer)
	if err != nil {
		s.writeErr(w, err, admission.Search)
		return
	}
	if !found {
		http.NotFound(w, r)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Disposition", fmt.Sprintf("attachment; filename=video-%d.cvj", id))
	h.Set("Content-Length", strconv.FormatInt(cr.Len(), 10))
	if r.Method == http.MethodHead {
		return
	}
	if n, err := io.Copy(w, cr); err != nil && n == 0 {
		h.Del("Content-Length")
		s.writeErr(w, err, admission.Search)
	}
}

// handleAdminDelete is the listing's delete button: POST form "id".
func (s *Server) handleAdminDelete(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodErr(w, http.MethodPost)
		return
	}
	s.deleteVideo(w, r, seeOther[int64])
}

// seeOther writes a form post's success: back to the home page.
func seeOther[T any](w http.ResponseWriter, r *http.Request, _ T) {
	http.Redirect(w, r, "/", http.StatusSeeOther)
}

func (s *Server) render(w http.ResponseWriter, t *template.Template, data any) {
	var buf bytes.Buffer
	if err := t.Execute(&buf, data); err != nil {
		s.writeErr(w, err, admission.Search)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	buf.WriteTo(w)
}
