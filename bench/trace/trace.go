// Package trace records spans around the benchmark's calls into each
// layer, keeps them in memory, and computes per-name self time.
package trace

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval. Parent is the index of the enclosing span
// in the recorded list, -1 for a root; spans of one operation share OpID.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	OpID   int    `json:"op_id"`
}

// Recorder collects spans. A nil *Recorder is tracing switched off: Start
// and End do nothing, so the traced and the untraced pass run one code
// path.
type Recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

// New returns a recorder whose clock starts now.
func New() *Recorder { return &Recorder{t0: time.Now()} }

// Start opens a span and returns its id, to pass to End and, as parent, to
// the spans it causes.
func (r *Recorder) Start(name string, parent, opID int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{Name: name, Start: now, Parent: parent, OpID: opID})
	return len(r.spans) - 1
}

// End closes the span.
func (r *Recorder) End(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// SelfTimes sums, per span name, each span's duration minus the part of
// it that its child spans cover. Children that overlap each other are
// counted once.
func SelfTimes(spans []Span) map[string]time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return self
}

// WriteJSON writes the spans to path as one JSON array.
func WriteJSON(path string, spans []Span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
