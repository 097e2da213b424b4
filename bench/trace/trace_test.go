package trace

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildCoverOnce(t *testing.T) {
	spans := []Span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0}, // overlaps a by 10
		{Name: "a", Start: 12, End: 20, Parent: 1}, // grandchild, same name as its parent
		{Name: "late", Start: 90, End: 120, Parent: 0},
	}
	self := SelfTimes(spans)
	want := map[string]time.Duration{
		"op":   100 - 50 - 10, // a∪b covers 10..60, late is clipped to 90..100
		"a":    (30 - 8) + 8,
		"b":    30,
		"late": 30,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, self[name], w)
		}
	}
}

func TestNilRecorderIsOff(t *testing.T) {
	var r *Recorder
	id := r.Start("x", -1, 0)
	r.End(id)
	if got := r.Spans(); got != nil {
		t.Errorf("a nil recorder recorded %v", got)
	}
}

func TestRecorderLinksSpans(t *testing.T) {
	r := New()
	op := r.Start("op", -1, 7)
	child := r.Start("child", op, 7)
	r.End(child)
	r.End(op)
	s := r.Spans()
	if len(s) != 2 || s[1].Parent != op || s[1].OpID != 7 || s[0].Parent != -1 {
		t.Fatalf("spans %+v", s)
	}
	if s[1].Start < s[0].Start || s[1].End > s[0].End || s[0].End < s[0].Start {
		t.Errorf("child %+v is not inside parent %+v", s[1], s[0])
	}
}
