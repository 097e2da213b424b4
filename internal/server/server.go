// Package server is the CBVR engine's one HTTP server: a JSON API under
// /api/v1 for programmatic clients and the paper's HTML pages (Figs. 2, 9,
// 10 — query form, result grid, video page, the administrator's upload,
// delete and reindex) for browsers. Search, ingest, delete and reindex each
// have one handler that both surfaces route to; a route only chooses how a
// success is written (JSON, a rendered page, or a 303 back to the home
// page). Failures are classified once, by one status table (statusOf in
// errors.go), and written as JSON with one Retry-After policy on both
// surfaces.
//
// Concurrency model: uploads run the engine's two-phase staged ingest —
// decode, key-frame selection, feature extraction and blob staging proceed
// with no store-wide lock, so N clients make progress simultaneously and
// serialize only on the short row-commit section.
//
// Overload model: every request runs under a server-assigned deadline, and
// every search and mutation passes the weighted admission controller
// (internal/admission). Each class (search/delete/ingest/reindex) has its
// own concurrency limit and bounded wait queue; refused work gets 429/503
// with a Retry-After computed from observed service times, lowest-priority
// classes shedding first as the load signal rises. A search runs at the
// load level its admission ticket carries (core.SearchOptions.Brownout)
// and echoes that level in the BrownoutHeader: under pressure fused
// searches shrink their probe budget toward the recall floor, and a search
// admitted at level 0 is exact. A slow-client watchdog re-arms
// a per-read connection deadline around body reads so a stalled uploader
// cannot hold an admission slot forever. Index reads — the store listing,
// the HTML read pages, stats and healthz — skip admission.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"cbvr/internal/admission"
	"cbvr/internal/catalog"
	"cbvr/internal/core"
	"cbvr/internal/imaging"
)

// Options tunes the API server.
type Options struct {
	// MaxUploadBytes caps request bodies (containers and query frames);
	// <= 0 selects 64 MiB. Oversized bodies fail with 413 naming the cap.
	MaxUploadBytes int64
	// Admission configures the weighted admission controller: per-class
	// concurrency limits, queue depths, shed thresholds and the load
	// signal. Zero fields take the admission package defaults. Uploads
	// beyond Limit[admission.Ingest] (default 2×GOMAXPROCS) are turned
	// away immediately with 429 + Retry-After rather than queued: the
	// client can pace itself; the server must not buffer unbounded decode
	// work.
	Admission admission.Config
	// SearchDeadline is the server-assigned deadline for search and read
	// endpoints; <= 0 selects 15s.
	SearchDeadline time.Duration
	// MutateDeadline is the server-assigned deadline for ingest, reindex
	// and delete; <= 0 selects 2m (a large upload decodes for a while).
	MutateDeadline time.Duration
	// MaxDeadline caps the client's X-CBVR-Deadline-Ms override; <= 0
	// selects 10m. The header can shorten or extend the default, but
	// never past this cap — a client must not pin a slot for an hour.
	MaxDeadline time.Duration
	// BodyStallTimeout arms the slow-client watchdog: each body read must
	// deliver bytes within this window or the connection read fails
	// (classified 408). 0 selects 15s; < 0 disables the watchdog (tests
	// with deliberately parked uploads).
	BodyStallTimeout time.Duration
}

// DefaultMaxUploadBytes is the body cap when Options leaves it zero.
const DefaultMaxUploadBytes = 64 << 20

// Default deadlines; see Options.
const (
	DefaultSearchDeadline   = 15 * time.Second
	DefaultMutateDeadline   = 2 * time.Minute
	DefaultMaxDeadline      = 10 * time.Minute
	DefaultBodyStallTimeout = 15 * time.Second
)

// DeadlineHeader is the request header through which a client overrides
// the endpoint's default deadline, in whole milliseconds, capped at
// Options.MaxDeadline. The response echoes the applied deadline under the
// same name so clients see the cap.
const DeadlineHeader = "X-CBVR-Deadline-Ms"

// BrownoutHeader reports, on search responses, the brownout level the
// search ran at: its admission ticket's level (0 means the exact
// configuration).
const BrownoutHeader = "X-CBVR-Brownout"

// brownoutVisible is the level at which healthz switches from "ok" to
// "browned-out": below this the budget shrink is negligible noise.
const brownoutVisible = 0.01

// Server is the HTTP handler set. Create one with New.
type Server struct {
	eng  *core.Engine
	mux  *http.ServeMux
	opts Options
	adm  *admission.Controller

	// baseCtx is cancelled by Abort: every in-flight request's context is
	// derived from it, so a forced shutdown stops ctx-aware engine work
	// (staged pages are discarded, nothing commits).
	baseCtx context.Context
	abort   context.CancelFunc

	// wg counts in-flight requests; Wait blocks until each handler has
	// returned (and with it released any staged blob pages), which must
	// happen before the store can close.
	wg sync.WaitGroup

	// admitHook, when set by tests, fires after an upload wins an
	// admission slot (deterministic queue-full setups).
	admitHook func(name string)
}

// respond writes an operation's success: JSON on an /api/v1 route, a page
// or a 303 on an HTML route.
type respond[T any] func(http.ResponseWriter, *http.Request, T)

// bind routes a request to op with the route's way of writing a success.
func bind[T any](op func(http.ResponseWriter, *http.Request, respond[T]), ok respond[T]) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) { op(w, r, ok) }
}

// New builds the route table around an engine.
func New(eng *core.Engine, opts Options) *Server {
	if opts.MaxUploadBytes <= 0 {
		opts.MaxUploadBytes = DefaultMaxUploadBytes
	}
	if opts.SearchDeadline <= 0 {
		opts.SearchDeadline = DefaultSearchDeadline
	}
	if opts.MutateDeadline <= 0 {
		opts.MutateDeadline = DefaultMutateDeadline
	}
	if opts.MaxDeadline <= 0 {
		opts.MaxDeadline = DefaultMaxDeadline
	}
	if opts.BodyStallTimeout == 0 {
		opts.BodyStallTimeout = DefaultBodyStallTimeout
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		eng:     eng,
		mux:     http.NewServeMux(),
		opts:    opts,
		adm:     admission.New(opts.Admission),
		baseCtx: ctx,
		abort:   cancel,
	}
	for _, rt := range []struct {
		pattern string
		mutates bool // requests other than GET run under MutateDeadline
		h       http.HandlerFunc
	}{
		{"/api/v1/search", false, bind(s.search, writeMatches)},
		{"/api/v1/videos", true, s.handleVideos},
		{"/api/v1/ingest", true, bind(s.ingest, writeIngested)},
		{"/api/v1/reindex", true, bind(s.reindex, writeReindexed)},
		{"/api/v1/stats", false, s.handleStats},
		{"/healthz", false, s.handleHealthz},
		{"/", false, s.handleHome},
		{"/search", false, bind(s.search, s.renderResults)},
		{"/video", false, s.handleVideo},
		{"/frame", false, s.handleFrame},
		{"/download", false, s.handleDownload},
		{"/admin/upload", true, bind(s.ingest, seeOther[*core.IngestResult])},
		{"/admin/delete", true, s.handleAdminDelete},
		{"/admin/reindex", true, bind(s.reindex, seeOther[[]*core.ReindexResult])},
	} {
		s.handle(rt.pattern, rt.mutates, rt.h)
	}
	return s
}

// handleHealthz reports liveness in four states, worst first:
//
//   - 503 "degraded"   — a write fault forced the store read-only; only a
//     process restart recovers it (searches still serve)
//   - 503 "shedding"   — the admission controller refused work within its
//     shed window; load balancers should divert what they can
//   - 200 "browned-out" — serving everything, but searches run with a
//     shrunken probe budget (quality, not availability, is reduced)
//   - 200 "ok"
//
// Every response carries the numeric brownout level; 503s carry a
// computed Retry-After. The load state is read once, as one admission
// Snapshot.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !readOnly(w, r) {
		return
	}
	snap := s.adm.Snapshot()
	retry := time.Duration(snap.Classes[admission.Ingest].RetryAfterSec) * time.Second
	code, body := http.StatusOK, map[string]any{"status": "ok", "brownout": snap.Level}
	switch err := s.eng.Degraded(); {
	case err != nil:
		code, body["status"], body["reason"] = http.StatusServiceUnavailable, "degraded", err.Error()
		applyRetryAfter(w.Header(), err, retry)
	case snap.Shedding:
		code, body["status"], body["reason"] = http.StatusServiceUnavailable, "shedding", snap.Reason
		setRetryAfter(w.Header(), retry)
	case snap.Level >= brownoutVisible:
		body["status"], body["reason"] = "browned-out", fmt.Sprintf("search probe budget shrunk to load level %.2f", snap.Level)
	}
	writeJSON(w, code, body)
}

// ServeHTTP implements http.Handler, counting the request for Wait.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.wg.Add(1)
	defer s.wg.Done()
	s.mux.ServeHTTP(w, r)
}

// handle registers h under pattern. Each request runs under a context that
// dies with the client connection, the route's deadline (MutateDeadline
// for a mutating route's non-GET requests, SearchDeadline otherwise, or
// the client's capped DeadlineHeader override), or Abort — whichever
// first. The applied deadline is echoed in the DeadlineHeader response
// header.
func (s *Server) handle(pattern string, mutates bool, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		d := s.opts.SearchDeadline
		if mutates && r.Method != http.MethodGet {
			d = s.opts.MutateDeadline
		}
		if hdr := r.Header.Get(DeadlineHeader); hdr != "" {
			if ms, err := strconv.ParseInt(hdr, 10, 64); err == nil && ms > 0 {
				// Clamp before converting: time.Duration(ms)*time.Millisecond
				// wraps negative for ms past about 9.2e12.
				if ms > s.opts.MaxDeadline.Milliseconds() {
					d = s.opts.MaxDeadline
				} else {
					d = time.Duration(ms) * time.Millisecond
				}
			}
		}
		w.Header().Set(DeadlineHeader, strconv.FormatInt(d.Milliseconds(), 10))
		ctx, cancel := context.WithDeadline(r.Context(), time.Now().Add(d))
		defer cancel()
		stop := context.AfterFunc(s.baseCtx, cancel)
		defer stop()
		h(w, r.WithContext(ctx))
	})
}

// admit runs one request through the admission controller. On refusal it
// writes the classified response (429/503 + computed Retry-After) and
// reports false; the caller returns immediately. On success the caller
// must Release the ticket.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, class admission.Class) (*admission.Ticket, bool) {
	tk, err := s.adm.Acquire(r.Context(), class)
	if err != nil {
		s.writeErr(w, err, class)
		return nil, false
	}
	return tk, true
}

// Abort cancels every in-flight request's context. The drain path calls it
// when graceful shutdown times out: ctx-aware engine loops stop within one
// decode iteration, staged uploads are discarded uncommitted, and handlers
// return 503.
func (s *Server) Abort() { s.abort() }

// Wait blocks until every in-flight request handler has returned. Call it
// after http.Server.Shutdown/Close and before closing the engine: a
// handler that is still unwinding may hold staged blob pages, and the
// store refuses to close under active staged writers.
func (s *Server) Wait() { s.wg.Wait() }

// writeJSON emits one JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// methodErr rejects a request with 405 and the allowed verbs.
func methodErr(w http.ResponseWriter, allowed string) {
	w.Header().Set("Allow", allowed)
	writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "method not allowed; use " + allowed})
}

// readOnly admits the GET and HEAD requests of a read page or probe; any
// other method gets the 405 and false.
func readOnly(w http.ResponseWriter, r *http.Request) bool {
	if r.Method == http.MethodGet || r.Method == http.MethodHead {
		return true
	}
	methodErr(w, "GET, HEAD")
	return false
}

// parseID parses a positive video or key-frame id. On failure it writes
// a 400 and reports false.
func parseID(w http.ResponseWriter, s string) (int64, bool) {
	id, err := strconv.ParseInt(s, 10, 64)
	if err != nil || id <= 0 {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "missing or invalid \"id\" parameter"})
		return 0, false
	}
	return id, true
}

// watchdogBody re-arms a per-read connection deadline around every body
// read: a client that stops sending for BodyStallTimeout fails the read
// with os.ErrDeadlineExceeded (classified 408) instead of parking the
// handler — and its admission slot — until the request deadline. Close
// clears the connection deadline so keep-alive reuse is unaffected.
type watchdogBody struct {
	body  io.ReadCloser
	rc    *http.ResponseController
	stall time.Duration
	armed bool
}

func (b *watchdogBody) Read(p []byte) (int, error) {
	if b.armed {
		if err := b.rc.SetReadDeadline(time.Now().Add(b.stall)); err != nil {
			// The underlying writer cannot set read deadlines (e.g. a
			// recorder in tests); degrade to an unwatched read.
			b.armed = false
		}
	}
	return b.body.Read(p)
}

func (b *watchdogBody) Close() error {
	if b.armed {
		b.rc.SetReadDeadline(time.Time{})
	}
	return b.body.Close()
}

// guardBody wraps the request body with the upload cap and, when enabled,
// the slow-client watchdog. Call before any body consumption.
func (s *Server) guardBody(w http.ResponseWriter, r *http.Request) {
	var body io.ReadCloser = r.Body
	if s.opts.BodyStallTimeout > 0 {
		body = &watchdogBody{
			body:  body,
			rc:    http.NewResponseController(w),
			stall: s.opts.BodyStallTimeout,
			armed: true,
		}
	}
	r.Body = http.MaxBytesReader(w, body, s.opts.MaxUploadBytes)
}

// videoJSON is one /api/v1/videos listing row.
type videoJSON struct {
	ID       int64     `json:"id"`
	Name     string    `json:"name"`
	VideoLen int64     `json:"video_len"`
	DoStore  time.Time `json:"do_store"`
}

// ingestJSON is the /api/v1/ingest success body.
type ingestJSON struct {
	VideoID     int64   `json:"video_id"`
	NumFrames   int     `json:"num_frames"`
	KeyFrameIDs []int64 `json:"key_frame_ids"`
}

// matchJSON is one /api/v1/search result row.
type matchJSON struct {
	KeyFrameID int64   `json:"key_frame_id"`
	VideoID    int64   `json:"video_id"`
	VideoName  string  `json:"video_name"`
	FrameIndex int     `json:"frame_index"`
	Distance   float64 `json:"distance"`
}

// reindexJSON is one rebuilt video in the /api/v1/reindex response.
type reindexJSON struct {
	VideoID   int64  `json:"video_id"`
	VideoName string `json:"video_name"`
	KeyFrames int    `json:"key_frames"`
}

// search ranks stored key frames against a query frame. The frame arrives
// either as multipart field "image" or as a raw JPEG body; "k" (query or
// form value, 1..1000, default 12) bounds the result count. The search
// runs at its admission ticket's load level and the response carries that
// level in the BrownoutHeader header, so the client knows the quality it
// got.
func (s *Server) search(w http.ResponseWriter, r *http.Request, ok respond[[]core.Match]) {
	if r.Method != http.MethodPost {
		methodErr(w, http.MethodPost)
		return
	}
	tk, admitted := s.admit(w, r, admission.Search)
	if !admitted {
		return
	}
	defer tk.Release()
	w.Header().Set(BrownoutHeader, strconv.FormatFloat(tk.Level(), 'f', 3, 64))
	s.guardBody(w, r)
	var frameSrc io.Reader = r.Body
	if isMultipart(r) {
		file, _, err := r.FormFile("image")
		if err != nil {
			s.writeErr(w, malformed(fmt.Errorf("multipart search needs an \"image\" file part: %w", err)), admission.Search)
			return
		}
		defer file.Close()
		// The form was parsed on a copy of the server's request, so the
		// server's own cleanup never sees spilled temp files.
		defer r.MultipartForm.RemoveAll()
		frameSrc = file
	}
	k, err := searchK(r)
	if err != nil {
		s.writeErr(w, malformed(err), admission.Search)
		return
	}
	query, err := imaging.DecodeJPEG(frameSrc)
	if err != nil {
		s.writeErr(w, malformed(fmt.Errorf("query frame is not a decodable JPEG: %w", err)), admission.Search)
		return
	}
	matches, err := s.eng.SearchFrameCtx(r.Context(), query, core.SearchOptions{K: k, Brownout: tk.Level()})
	if err != nil {
		s.writeErr(w, err, admission.Search)
		return
	}
	ok(w, r, matches)
}

// searchK reads a search's result count from the query string, or from a
// multipart form already parsed by the caller. Absent or empty means 12;
// anything else must be an integer in 1..1000.
func searchK(r *http.Request) (int, error) {
	kStr := r.URL.Query().Get("k")
	if kStr == "" && r.MultipartForm != nil {
		kStr = r.FormValue("k")
	}
	if kStr == "" {
		return 12, nil
	}
	k, err := strconv.Atoi(kStr)
	if err != nil || k < 1 || k > 1000 {
		return 0, fmt.Errorf("k must be an integer in 1..1000, got %q", kStr)
	}
	return k, nil
}

func writeMatches(w http.ResponseWriter, _ *http.Request, matches []core.Match) {
	out := make([]matchJSON, len(matches))
	for i, m := range matches {
		out[i] = matchJSON{
			KeyFrameID: m.KeyFrameID,
			VideoID:    m.VideoID,
			VideoName:  m.VideoName,
			FrameIndex: m.FrameIndex,
			Distance:   m.Distance,
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"matches": out})
}

// handleVideos lists the store (GET) or deletes one video (DELETE ?id=N).
func (s *Server) handleVideos(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		vids, nk, ok := s.listing(w)
		if !ok {
			return
		}
		out := make([]videoJSON, len(vids))
		for i, v := range vids {
			out[i] = videoJSON{ID: v.ID, Name: v.Name, VideoLen: v.VideoLen, DoStore: v.DoStore}
		}
		writeJSON(w, http.StatusOK, map[string]any{"videos": out, "key_frames": nk})
	case http.MethodDelete:
		s.deleteVideo(w, r, writeDeleted)
	default:
		methodErr(w, "GET, DELETE")
	}
}

// listing reads the stored videos and the key-frame count for the JSON
// listing and the home page. On failure it writes the error and reports
// false.
func (s *Server) listing(w http.ResponseWriter) ([]*catalog.VideoInfo, int, bool) {
	vids, err := s.eng.Store().ListVideos(nil)
	if err != nil {
		s.writeErr(w, err, admission.Search)
		return nil, 0, false
	}
	nk, err := s.eng.Store().CountKeyFrames(nil)
	if err != nil {
		s.writeErr(w, err, admission.Search)
		return nil, 0, false
	}
	return vids, nk, true
}

// deleteVideo removes one video, id from the query string or a urlencoded
// form, in the delete admission class. Callers check the method.
func (s *Server) deleteVideo(w http.ResponseWriter, r *http.Request, ok respond[int64]) {
	s.guardBody(w, r)
	id, valid := parseID(w, queryOrForm(r, "id"))
	if !valid {
		return
	}
	tk, admitted := s.admit(w, r, admission.Delete)
	if !admitted {
		return
	}
	defer tk.Release()
	if err := s.eng.DeleteVideo(id); err != nil {
		s.writeStoredErr(w, err, admission.Delete)
		return
	}
	ok(w, r, id)
}

func writeDeleted(w http.ResponseWriter, _ *http.Request, id int64) {
	writeJSON(w, http.StatusOK, map[string]any{"deleted": id})
}

// ingest admits one upload into the staged ingest pipeline. The container
// arrives either as multipart ("name" field before a "video" file part,
// both streamed — the body is never buffered whole) or as a raw CVJ body
// with ?name=. Over-admission returns 429 with a computed Retry-After; the
// client owns its backoff.
func (s *Server) ingest(w http.ResponseWriter, r *http.Request, ok respond[*core.IngestResult]) {
	if r.Method != http.MethodPost {
		methodErr(w, http.MethodPost)
		return
	}
	// Refuse degraded uploads before the client streams the container: the
	// store would reject the staged writer anyway, and failing here costs
	// one header round-trip instead of the whole body.
	if err := s.eng.Degraded(); err != nil {
		s.writeErr(w, err, admission.Ingest)
		return
	}
	tk, admitted := s.admit(w, r, admission.Ingest)
	if !admitted {
		return
	}
	defer tk.Release()
	if s.admitHook != nil {
		s.admitHook(r.URL.Query().Get("name"))
	}
	s.guardBody(w, r)

	name := r.URL.Query().Get("name")
	var container io.Reader = r.Body
	if isMultipart(r) {
		mr, err := r.MultipartReader()
		if err != nil {
			err = malformed(fmt.Errorf("malformed multipart body: %w", err))
		} else {
			name, container, err = videoPart(r.Context(), mr, name)
		}
		if err != nil {
			s.writeErr(w, err, admission.Ingest)
			return
		}
	}
	res, err := s.eng.IngestVideoStreamCtx(r.Context(), name, container)
	if err != nil {
		s.writeErr(w, err, admission.Ingest)
		return
	}
	ok(w, r, res)
}

// videoPart walks a multipart upload in wire order up to its "video" part,
// so the container streams straight into ingest without spooling the body
// to disk or memory. A "name" field is seen only ahead of that part and
// only when name is still empty; the part's file name is the last resort.
func videoPart(ctx context.Context, mr *multipart.Reader, name string) (string, io.Reader, error) {
	for {
		// A part read can block on a stalled client; bail out once the
		// request context is cancelled rather than walking dead parts.
		if err := ctx.Err(); err != nil {
			return "", nil, err
		}
		part, err := mr.NextPart()
		if err == io.EOF {
			return "", nil, malformed(errors.New("missing \"video\" upload part"))
		}
		if err != nil {
			return "", nil, malformed(fmt.Errorf("malformed multipart body: %w", err))
		}
		switch part.FormName() {
		case "name":
			b, err := io.ReadAll(io.LimitReader(part, 4096))
			if err != nil {
				return "", nil, malformed(fmt.Errorf("malformed \"name\" part: %w", err))
			}
			if name == "" {
				name = string(b)
			}
		case "video":
			if name == "" {
				name = part.FileName()
			}
			return name, part, nil
		}
	}
}

func writeIngested(w http.ResponseWriter, _ *http.Request, res *core.IngestResult) {
	writeJSON(w, http.StatusOK, ingestJSON{VideoID: res.VideoID, NumFrames: res.NumFrames, KeyFrameIDs: res.KeyFrameIDs})
}

// reindex rebuilds feature rows from stored key-frame streams: one video
// with ?id= (or form id), the whole store without. The videos stay
// searchable throughout — each rebuild swaps in atomically on commit.
// Reindex is the lowest-priority admission class — the first work shed
// under load.
func (s *Server) reindex(w http.ResponseWriter, r *http.Request, ok respond[[]*core.ReindexResult]) {
	if r.Method != http.MethodPost {
		methodErr(w, http.MethodPost)
		return
	}
	s.guardBody(w, r)
	var id int64
	if idStr := queryOrForm(r, "id"); idStr != "" {
		var valid bool
		if id, valid = parseID(w, idStr); !valid {
			return
		}
	}
	tk, admitted := s.admit(w, r, admission.Reindex)
	if !admitted {
		return
	}
	defer tk.Release()
	var results []*core.ReindexResult
	if id > 0 {
		res, err := s.eng.ReindexVideoCtx(r.Context(), id)
		if err != nil {
			s.writeStoredErr(w, err, admission.Reindex)
			return
		}
		results = []*core.ReindexResult{res}
	} else {
		var err error
		results, err = s.eng.ReindexAllCtx(r.Context())
		if err != nil {
			s.writeStoredErr(w, err, admission.Reindex)
			return
		}
	}
	ok(w, r, results)
}

func writeReindexed(w http.ResponseWriter, _ *http.Request, results []*core.ReindexResult) {
	out := make([]reindexJSON, len(results))
	for i, res := range results {
		out[i] = reindexJSON{VideoID: res.VideoID, VideoName: res.VideoName, KeyFrames: res.KeyFrames}
	}
	writeJSON(w, http.StatusOK, map[string]any{"reindexed": out})
}

// handleStats reports the engine's cumulative search work counters, the
// state of the per-shard cell index, and the overload view: admission
// per-class occupancy/sheds and the current load level, all from one
// admission Snapshot.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodErr(w, http.MethodGet)
		return
	}
	cells, err := s.eng.CellStats()
	if err != nil {
		s.writeErr(w, err, admission.Search)
		return
	}
	snap := s.adm.Snapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"search":    s.eng.SearchTally(),
		"cells":     cells,
		"admission": snap,
		"brownout":  snap.Level,
	})
}

// isMultipart reports whether the request body is multipart/form-data.
func isMultipart(r *http.Request) bool {
	ct, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	return err == nil && strings.HasPrefix(ct, "multipart/")
}

// queryOrForm reads a parameter from the query string first (form parsing
// would consume a streaming body).
func queryOrForm(r *http.Request, key string) string {
	if v := r.URL.Query().Get(key); v != "" {
		return v
	}
	if isMultipart(r) {
		return "" // never drain a streaming multipart body for a form value
	}
	return r.PostFormValue(key)
}
