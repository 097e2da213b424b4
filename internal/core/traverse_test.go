package core

import "testing"

// tieState builds a two-kind traversal at K = 1 in which row A (ID 5) is
// released in both kinds, at ranks 1 and 2, and row B (ID 3) only in the
// second kind, at rank 1, with the first kind one row deep. B's bound is
// then A's exact score, bit for bit, and B would win the tie on ID if its
// first-kind rank turns out to be 2.
func tieState() *traversal {
	t := &traversal{k: 1, n: 100, full: 3}
	t.kinds = []travKind{
		{bound: []float64{1}, cells: []int32{0}},
		{bound: []float64{1}, cells: []int32{0}},
	}
	t.kinds[0].depth, t.kinds[0].term = 1, 1/(rrfC+2)
	t.kinds[1].depth, t.kinds[1].term = 2, 1/(rrfC+3)
	a := travRow{id: 5, mask: 3, inTop: true, rank: [7]int32{1, 2}}
	a.known = 1/(rrfC+1) + 1/(rrfC+2)
	a.w = a.known
	b := travRow{id: 3, mask: 2, rank: [7]int32{0, 1}}
	b.known = 1 / (rrfC + 1)
	b.w = b.known + t.wMin
	t.rows = []travRow{a, b}
	t.top = []int32{0}
	return t
}

// TestTraversalWaitsOnTies pins the strict stop: a row whose best
// reachable score equals the K-th score exactly may still tie it and win
// on ID, so the traversal must deepen the kind that row is missing rather
// than stop.
func TestTraversalWaitsOnTies(t *testing.T) {
	tr := tieState()
	if got := tr.bound(&tr.rows[1]); got != tr.rows[0].w {
		t.Fatalf("planted bound %v, want exactly the K-th score %v", got, tr.rows[0].w)
	}
	ki, done := tr.next()
	if done || ki != 0 {
		t.Fatalf("next() = (%d, %v) with a row tied at the K-th score: want to deepen kind 0", ki, done)
	}
	if _, ok := tr.verify(); ok {
		t.Fatal("verify certified a top K that a tied row could still enter")
	}
}
