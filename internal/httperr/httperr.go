// Package httperr maps engine and request-decoding errors onto HTTP status
// codes for internal/server, whose JSON API and HTML pages share one set of
// handlers and so classify every failure identically: the client's fault
// (4xx) is told apart from the server's (5xx) by inspecting the error
// chain, never by string matching.
package httperr

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

// StatusOf classifies err:
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
//   - core.ErrOverloaded → 503 (the engine refused an unbounded search
//     under brownout; retry when load clears)
//   - cvj.ErrFormat or io.ErrUnexpectedEOF → 400 (the uploaded bytes are
//     not a valid container, or were cut off mid-stream)
//   - Malformed → 400 (the request body or form does not decode)
//   - anything else → 500 (storage or internal fault; not the client)
//
// A nil error is 200.
func StatusOf(err error) int {
	var mbe *http.MaxBytesError
	var shed *admission.ShedError
	var bad malformed
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
	case errors.Is(err, vstore.ErrReadOnly), errors.Is(err, core.ErrOverloaded):
		return http.StatusServiceUnavailable
	case errors.Is(err, cvj.ErrFormat), errors.Is(err, io.ErrUnexpectedEOF), errors.As(err, &bad):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// Malformed marks err as a request the server cannot decode — a multipart
// stream that does not parse, a missing form part, a query frame that is
// not a JPEG — so StatusOf answers 400. The message stays err's own. A
// body cut by the upload cap, the watchdog or the request context inside
// err still classifies as 413, 408 or 503: StatusOf checks those first.
func Malformed(err error) error { return malformed{err} }

type malformed struct{ error }

func (m malformed) Unwrap() error { return m.error }

// StatusOfStored classifies errors from operations over already-stored
// data (reindex, delete): no request bytes are involved, so a container
// format error means the STORE is corrupt — the server's fault (500),
// never the client's (400). Only addressing (404) and abandonment (503)
// remain client-visible classes.
func StatusOfStored(err error) int {
	var shed *admission.ShedError
	switch {
	case err == nil:
		return http.StatusOK
	case errors.As(err, &shed):
		if shed.Overload {
			return http.StatusServiceUnavailable
		}
		return http.StatusTooManyRequests
	case errors.Is(err, core.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	case errors.Is(err, vstore.ErrReadOnly), errors.Is(err, core.ErrOverloaded):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// RetryAfter reports whether err warrants a Retry-After header: a
// degraded store (recovers only on restart), an engine overload refusal,
// or an admission shed (which carries its own computed estimate — see
// RetryAfterHint).
func RetryAfter(err error) bool {
	var shed *admission.ShedError
	return errors.Is(err, vstore.ErrReadOnly) ||
		errors.Is(err, core.ErrOverloaded) ||
		errors.As(err, &shed)
}

// RetryAfterHint extracts the computed Retry-After duration an error
// carries, if any. Only admission sheds embed one; every other
// retryable error defers to the caller's estimator (the admission
// controller's per-class RetryAfter).
func RetryAfterHint(err error) (time.Duration, bool) {
	var shed *admission.ShedError
	if errors.As(err, &shed) {
		return shed.RetryAfter, true
	}
	return 0, false
}

// DegradedRetryAfter floors the degraded-store backoff: a degraded store
// recovers only when the process restarts and recovery settles durable
// state, so clients gain nothing by returning sooner, whatever the
// admission controller's live estimate says.
const DegradedRetryAfter = 30 * time.Second

// ApplyRetryAfter attaches the Retry-After header err warrants, if any.
// The duration is the error's own computed hint when it carries one
// (admission sheds), otherwise the caller's estimate (the admission
// controller's per-class value; zero if the caller has no estimator).
// Degraded-store errors are floored at DegradedRetryAfter.
func ApplyRetryAfter(h http.Header, err error, estimate time.Duration) {
	if !RetryAfter(err) {
		return
	}
	d := estimate
	if hint, ok := RetryAfterHint(err); ok {
		d = hint
	}
	if errors.Is(err, vstore.ErrReadOnly) && d < DegradedRetryAfter {
		d = DegradedRetryAfter
	}
	h.Set("Retry-After", strconv.Itoa(admission.RetryAfterSeconds(d)))
}

// Message renders err for the response body. The 413 case names the limit
// so clients learn the cap without reading server config; other statuses
// pass the error text through.
func Message(err error) string {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return fmt.Sprintf("request body exceeds the %d-byte upload limit", mbe.Limit)
	}
	return err.Error()
}
