package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"cbvr/internal/admission"
	"cbvr/internal/core"
	"cbvr/internal/cvj"
	"cbvr/internal/vstore"
)

// statusOf is the server's one error-classification table. The JSON API
// and the HTML pages share its handlers and so classify every failure
// identically: the client's fault (4xx) is told apart from the server's
// (5xx) by inspecting the error chain, never by string matching.
//
//   - *http.MaxBytesError → 413 (the request body hit the server's size
//     cap; checked first because the truncation it causes also looks like
//     a malformed container further down the chain)
//   - core.ErrEmptyName → 400
//   - core.ErrNotFound → 404
//   - admission.ShedError → 503 when the server shed the request under
//     overload pressure, 429 when the request's own class was simply at
//     capacity (the client should pace itself)
//   - context cancellation / deadline → 503 (the request was abandoned,
//     its deadline ran out, or the server is shutting down; nothing was
//     committed)
//   - os.ErrDeadlineExceeded → 408 (the CLIENT stalled: the body-read
//     watchdog cut a connection that stopped sending; checked before the
//     format errors because a watchdog cut also truncates the stream)
//   - vstore.ErrReadOnly → 503 (the store is degraded read-only after a
//     write fault; retry against a restarted process, not this one)
//   - cvj.ErrFormat or io.ErrUnexpectedEOF → 400 (the uploaded bytes are
//     not a valid container, or were cut off mid-stream)
//   - malformed → 400 (the request body or form does not decode)
//   - anything else → 500 (storage or internal fault; not the client)
//
// A nil error is 200.
func statusOf(err error) int {
	var mbe *http.MaxBytesError
	var shed *admission.ShedError
	var bad malformedErr
	switch {
	case err == nil:
		return http.StatusOK
	case errors.As(err, &mbe):
		return http.StatusRequestEntityTooLarge
	case errors.As(err, &shed):
		if shed.Overload {
			return http.StatusServiceUnavailable
		}
		return http.StatusTooManyRequests
	case errors.Is(err, core.ErrEmptyName):
		return http.StatusBadRequest
	case errors.Is(err, core.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	case errors.Is(err, os.ErrDeadlineExceeded):
		return http.StatusRequestTimeout
	case errors.Is(err, vstore.ErrReadOnly):
		return http.StatusServiceUnavailable
	case errors.Is(err, cvj.ErrFormat), errors.Is(err, io.ErrUnexpectedEOF), errors.As(err, &bad):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// statusOfStored classifies errors from operations over already-stored
// data (reindex, delete) through the same table: no request bytes are
// involved, so a status that blames the request (400, 408, 413) means the
// STORE is at fault — a container format error there is corruption — and
// is reported as 500. Addressing (404), pacing (429) and abandonment or
// overload (503) stay client-visible.
func statusOfStored(err error) int {
	switch st := statusOf(err); st {
	case http.StatusBadRequest, http.StatusRequestTimeout, http.StatusRequestEntityTooLarge:
		return http.StatusInternalServerError
	default:
		return st
	}
}

// malformed marks err as a request the server cannot decode — a multipart
// stream that does not parse, a missing form part, a query frame that is
// not a JPEG — so statusOf answers 400. The message stays err's own. A
// body cut by the upload cap, the watchdog or the request context inside
// err still classifies as 413, 408 or 503: statusOf checks those first.
func malformed(err error) error { return malformedErr{err} }

type malformedErr struct{ error }

func (m malformedErr) Unwrap() error { return m.error }

// degradedRetryAfter floors the degraded-store backoff: a degraded store
// recovers only when the process restarts and recovery settles durable
// state, so clients gain nothing by returning sooner, whatever the
// admission controller's live estimate says.
const degradedRetryAfter = 30 * time.Second

// applyRetryAfter attaches the Retry-After header err warrants, if any: an
// admission shed takes its own computed hint; a degraded store (recovers
// only on restart) takes the caller's estimate (the admission
// controller's per-class value; zero if the caller has no estimator),
// floored at degradedRetryAfter.
func applyRetryAfter(h http.Header, err error, estimate time.Duration) {
	var shed *admission.ShedError
	switch {
	case errors.As(err, &shed):
		estimate = shed.RetryAfter
	case errors.Is(err, vstore.ErrReadOnly):
		estimate = max(estimate, degradedRetryAfter)
	default:
		return
	}
	setRetryAfter(h, estimate)
}

// setRetryAfter writes d as a Retry-After header in whole seconds (at
// least one).
func setRetryAfter(h http.Header, d time.Duration) {
	h.Set("Retry-After", strconv.Itoa(admission.RetryAfterSeconds(d)))
}

// errorMessage renders err for the response body. The 413 case names the
// limit so clients learn the cap without reading server config; other
// statuses pass the error text through.
func errorMessage(err error) string {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return fmt.Sprintf("request body exceeds the %d-byte upload limit", mbe.Limit)
	}
	return err.Error()
}

// writeErr classifies err through statusOf and emits it as JSON.
// Retryable errors carry a Retry-After computed from the class's observed
// service times (admission sheds embed their own estimate; degraded-store
// errors are floored at the restart backoff).
func (s *Server) writeErr(w http.ResponseWriter, err error, class admission.Class) {
	applyRetryAfter(w.Header(), err, s.adm.RetryAfter(class))
	writeJSON(w, statusOf(err), map[string]string{"error": errorMessage(err)})
}

// writeStoredErr is writeErr for operations over stored data (reindex,
// delete), classified through statusOfStored.
func (s *Server) writeStoredErr(w http.ResponseWriter, err error, class admission.Class) {
	applyRetryAfter(w.Header(), err, s.adm.RetryAfter(class))
	writeJSON(w, statusOfStored(err), map[string]string{"error": errorMessage(err)})
}
