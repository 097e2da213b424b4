package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"testing"
	"time"

	"cbvr/internal/admission"
	"cbvr/internal/core"
	"cbvr/internal/cvj"
	"cbvr/internal/vstore"
)

// TestClassification walks every class both surfaces distinguish: the
// bare sentinel, the sentinel behind %w wrapping (the form the engine
// actually returns), and the cases where two classes overlap in one chain
// and the documented precedence decides. retryAfter is the header
// applyRetryAfter sets given a 3s caller estimate ("" = none).
func TestClassification(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("core: ingest %q: %w", "clip", err) }
	tooLarge := &http.MaxBytesError{Limit: 1 << 20}
	atCapacity := &admission.ShedError{Class: admission.Ingest, RetryAfter: 1500 * time.Millisecond, Reason: "at capacity"}
	overload := &admission.ShedError{Class: admission.Reindex, Overload: true, RetryAfter: 7 * time.Second, Reason: "load"}

	for _, tc := range []struct {
		name           string
		err            error
		status, stored int
		retryAfter     string
	}{
		{"nil", nil, 200, 200, ""},
		{"empty name", core.ErrEmptyName, 400, 500, ""},
		{"empty name wrapped", wrap(core.ErrEmptyName), 400, 500, ""},
		{"not found", core.ErrNotFound, 404, 404, ""},
		{"not found wrapped", wrap(core.ErrNotFound), 404, 404, ""},
		{"body too large", tooLarge, 413, 500, ""},
		// The cap truncates the stream, so the decoder reports a format
		// error on top of it; the cap must still win.
		{"body too large behind format error", fmt.Errorf("%w: %w", cvj.ErrFormat, tooLarge), 413, 500, ""},
		{"malformed container", wrap(cvj.ErrFormat), 400, 500, ""},
		{"truncated container", wrap(io.ErrUnexpectedEOF), 400, 500, ""},
		{"ctx cancelled", wrap(context.Canceled), 503, 503, ""},
		{"ctx deadline", wrap(context.DeadlineExceeded), 503, 503, ""},
		// The watchdog's read-deadline error is the client stalling (408),
		// distinct from the request's own context deadline (503) — and the
		// cut truncates the stream too, so it must beat the format error.
		{"watchdog stall", wrap(os.ErrDeadlineExceeded), 408, 500, ""},
		{"watchdog stall behind format error", fmt.Errorf("%w: %w", cvj.ErrFormat, os.ErrDeadlineExceeded), 408, 500, ""},
		{"class at capacity", wrap(atCapacity), 429, 429, "2"},
		{"overload shed", wrap(overload), 503, 503, "7"},
		{"store read-only", vstore.ErrReadOnly, 503, 503, "30"},
		{"store read-only wrapped", wrap(vstore.ErrReadOnly), 503, 503, "30"},
		{"malformed request", malformed(errors.New("multipart: NextPart: EOF")), 400, 500, ""},
		// A request body cut by the cap, the watchdog or the context breaks
		// the multipart stream too; the cut must still win.
		{"body too large behind malformed", malformed(fmt.Errorf("multipart: NextPart: %w", tooLarge)), 413, 500, ""},
		{"watchdog stall behind malformed", malformed(fmt.Errorf("multipart: NextPart: %w", os.ErrDeadlineExceeded)), 408, 500, ""},
		{"ctx cancelled behind malformed", malformed(wrap(context.Canceled)), 503, 503, ""},
		{"internal fault", errors.New("page checksum mismatch"), 500, 500, ""},
	} {
		if got := statusOf(tc.err); got != tc.status {
			t.Errorf("%s: statusOf = %d, want %d", tc.name, got, tc.status)
		}
		if got := statusOfStored(tc.err); got != tc.stored {
			t.Errorf("%s: statusOfStored = %d, want %d", tc.name, got, tc.stored)
		}
		h := http.Header{}
		applyRetryAfter(h, tc.err, 3*time.Second)
		if got := h.Get("Retry-After"); got != tc.retryAfter {
			t.Errorf("%s: Retry-After = %q, want %q", tc.name, got, tc.retryAfter)
		}
	}
}

// TestApplyRetryAfterEstimates pins how the caller's estimate combines
// with what the error carries: the degraded floor applies only below 30s,
// a shed's own hint beats the estimate, and a missing estimate still
// yields a positive integer.
func TestApplyRetryAfterEstimates(t *testing.T) {
	for _, tc := range []struct {
		name     string
		err      error
		estimate time.Duration
		want     string
	}{
		{"degraded keeps a longer estimate", vstore.ErrReadOnly, 45 * time.Second, "45"},
		{"degraded floors a shorter estimate", vstore.ErrReadOnly, 0, "30"},
		{"shed hint beats estimate", &admission.ShedError{RetryAfter: 4 * time.Second}, time.Minute, "4"},
		{"no estimate", &admission.ShedError{}, time.Minute, "1"},
		{"fractional estimate rounds up", &admission.ShedError{RetryAfter: 1200 * time.Millisecond}, 0, "2"},
	} {
		h := http.Header{}
		applyRetryAfter(h, tc.err, tc.estimate)
		if got := h.Get("Retry-After"); got != tc.want {
			t.Errorf("%s: Retry-After = %q, want %q", tc.name, got, tc.want)
		}
	}
}
