package similarity

import "sort"

// TopK selects the k smallest Ranked values from a stream without
// materialising or fully sorting it: a bounded max-heap keeps the k best
// candidates seen so far with the worst of them at the root, so n pushes
// cost O(n log k) time and O(k) memory. Ordering is ascending distance
// with ties broken by ascending ID, matching Rank, so selecting the top k
// and then sorting the survivors reproduces exactly the first k rows of a
// full Rank over the same candidates.
//
// k <= 0 means unbounded: every pushed value is kept (used when a caller
// wants the complete ranking through the same code path).
//
// A TopK is not safe for concurrent use; the sharded search pipeline gives
// each shard worker its own heap and merges them afterwards.
type TopK struct {
	k int
	h []Ranked // max-heap on worseRanked: h[0] is the worst kept value
}

// topKPreallocCap bounds the eager allocation for huge or unbounded k so
// that "return everything" queries don't reserve memory for candidates
// that may never arrive.
const topKPreallocCap = 1024

// NewTopK returns a selector for the k smallest values; k <= 0 keeps all.
func NewTopK(k int) *TopK {
	t := &TopK{k: k}
	capHint := k
	if capHint <= 0 || capHint > topKPreallocCap {
		capHint = topKPreallocCap
	}
	t.h = make([]Ranked, 0, capHint)
	return t
}

// worseRanked reports whether a ranks strictly after b: greater distance,
// or equal distance and greater ID. It is the inverse of Rank's sort
// order.
func worseRanked(a, b Ranked) bool {
	if a.Distance != b.Distance {
		return a.Distance > b.Distance
	}
	return a.ID > b.ID
}

// Len reports how many values are currently kept.
func (t *TopK) Len() int { return len(t.h) }

// Worst returns the worst currently-kept value; ok is false while the
// heap is empty. Once the heap holds k values, any candidate worse than
// this cannot enter the selection, which lets callers skip work early.
func (t *TopK) Worst() (r Ranked, ok bool) {
	if len(t.h) == 0 {
		return Ranked{}, false
	}
	return t.h[0], true
}

// Push offers one candidate to the selection.
func (t *TopK) Push(r Ranked) {
	if t.k > 0 && len(t.h) == t.k {
		if !worseRanked(t.h[0], r) {
			return // r is no better than the current worst kept value
		}
		t.h[0] = r
		t.siftDown(0)
		return
	}
	t.h = append(t.h, r)
	t.siftUp(len(t.h) - 1)
}

// Merge pushes every value kept by o into t. o is left unchanged.
func (t *TopK) Merge(o *TopK) {
	if o == nil {
		return
	}
	for _, r := range o.h {
		t.Push(r)
	}
}

// Sorted returns the kept values in ascending (distance, ID) order. The
// heap is left unchanged.
func (t *TopK) Sorted() []Ranked {
	out := make([]Ranked, len(t.h))
	copy(out, t.h)
	sort.Slice(out, func(i, j int) bool { return worseRanked(out[j], out[i]) })
	return out
}

func (t *TopK) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !worseRanked(t.h[i], t.h[p]) {
			return
		}
		t.h[i], t.h[p] = t.h[p], t.h[i]
		i = p
	}
}

func (t *TopK) siftDown(i int) {
	n := len(t.h)
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && worseRanked(t.h[l], t.h[worst]) {
			worst = l
		}
		if r < n && worseRanked(t.h[r], t.h[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		t.h[i], t.h[worst] = t.h[worst], t.h[i]
		i = worst
	}
}
