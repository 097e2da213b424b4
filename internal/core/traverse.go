// Exact threshold traversal through the cell indexes: the search path of
// every bounded (K > 0) single-kind or RRF-fused frame search once at
// least one shard has usable cells.
//
// Per requested kind, one walk visits every shard's cells in one
// ascending order of the kind's certified lower bound
// (features.BatchLowerBound); a shard without usable cells takes part as
// one pseudo-cell of bound 0 holding all of its candidate rows. Sweeping
// a cell scores its candidate rows in that kind only and parks them in
// the kind's pending heap. A parked row is released once its distance is
// strictly below the next unswept cell's bound (equal distances wait),
// so each kind releases rows in exact (distance, key-frame ID) order and
// the d-th release has global kind rank d: the rank the reference's
// stable sort gives it.
//
//   - Single-kind search stops after K releases: they are the top K.
//   - RRF fusion is the no-random-access algorithm (NRA) of Fagin, Lotem
//     and Naor (PODS 2001) over reciprocal rank fusion (Cormack, Clarke
//     and Büttcher, SIGIR 2009). A row not yet released in kind k ranks
//     at least d_k + 1 there, so its score is at most its released terms
//     plus 1/(C + d_k + 1) per missing kind. The walk stops once the top
//     K are released in every kind (exact scores) and every other row's
//     best reachable score is strictly below the K-th: ties between exact
//     scores still break by ID, so the answer is the reference's, bit for
//     bit. A row keeps one score, the sum of its released terms, and a
//     running top K orders rows by it. Each step deepens by one cell the
//     shallowest kind that a top-K row is missing; once the top K is
//     fully released, verify decides the stop from scratch or names the
//     kinds a row that can still reach the K-th score is missing. Once
//     its paid evaluations pass the exact sweep's cost it sweeps every
//     remaining cell instead, so the worst case is the sweep plus the
//     cell bounds.
//
// The traversal runs on the calling goroutine, so its schedule and work
// counters are a function of the query and the cells alone.
package core

import (
	"context"
	"math"
	"sync"

	"cbvr/internal/features"
	"cbvr/internal/rangeindex"
	"cbvr/internal/similarity"
)

// rrfC is the RRF constant as the reference's float64 arithmetic uses it.
const rrfC = float64(similarity.RRFConstant)

// rrfSlack is the relative margin of the traversal's score bounds. A
// bound sums at most seven terms near 1/61 in some order, so it is within
// a few ulps (~1e-16 relative) of the kind-order sum the reference
// computes; a row is certified below the K-th score only when its bound,
// grown by this margin, still is.
const rrfSlack = 1e-12

// Stop reasons a search records in SearchStats.Stop.
const (
	// StopThreshold: the traversal certified the exact top K.
	StopThreshold = "threshold"
	// StopSweep: the traversal's paid evaluations passed the exact
	// sweep's cost, so it swept every remaining cell; still exact.
	StopSweep = "sweep"
)

// travCell is one cell of the global walk: a shard's cell, or the whole
// shard (cell == noSlot) as a pseudo-cell of bound 0.
type travCell struct {
	shard int32
	cell  int32
}

// parked is a swept row waiting in one kind's pending heap. Its
// key-frame ID is read only where two distances tie and on release.
type parked struct {
	d           float64
	shard, slot int32
}

// travKind is one requested kind's walk.
type travKind struct {
	bound []float64 // per global cell
	cells []int32   // min-heap of the unswept global cells by (bound, index)
	pend  []parked  // min-heap of swept, unreleased rows by (distance, ID)
	depth int       // rows released so far
	term  float64   // 1/(C + depth + 1): the most an unreleased row can add
}

// exhausted reports whether every row has been released in the kind.
func (k *travKind) exhausted() bool { return len(k.cells) == 0 && len(k.pend) == 0 }

// travRow is one released row's fusion state.
type travRow struct {
	id    int64
	mask  uint8 // request-order kinds the row is released in
	inTop bool
	// w sums the released terms: in release order while the row is
	// partly released (bound() adds the missing kinds' terms), in kind
	// order, the reference's exact score, once it is full.
	w    float64
	rank [features.NumKinds]int32
}

// traversal is one search's threshold traversal state, pooled.
type traversal struct {
	e       *Engine
	pq      *PackedQuery
	qbucket rangeindex.Range
	noPrune bool
	k       int
	n       int   // candidate rows over all shards
	full    uint8 // mask of every requested kind

	cells []travCell
	kinds []travKind
	rows  []travRow // the rows released in at least one kind
	// rowAt maps base[shard] + slot to gen<<32 | row index; entries of
	// an older gen are stale.
	base  []int
	rowAt []uint64
	gen   uint32

	top    []int32             // rows ranked best by (w desc, ID), at most k
	single []similarity.Ranked // single-kind: the releases, in order

	iota    []int32 // 0, 1, 2, ...: every cell of a shard
	members []int32
	dist    []float64

	rowEvals, cellEvals int64
}

var traversalPool = sync.Pool{New: func() any { return new(traversal) }}

// release drops the engine and query references and pools the state.
func (t *traversal) release() {
	t.e, t.pq = nil, nil
	traversalPool.Put(t)
}

// planTraversal readies the traversal for a bounded single-kind or RRF
// search, or returns nil when the request takes the per-shard paths: K <=
// 0, min-max fusion, a kind without a certified bound, no shard with
// usable cells, or K covering every candidate. stats receives the
// per-shard row counts and paths.
func (e *Engine) planTraversal(opt *SearchOptions, pq *PackedQuery, qbucket rangeindex.Range, stats *SearchStats) *traversal {
	nk := len(pq.kinds)
	if opt.K <= 0 || opt.NoCellPruning || nk > 1 && opt.Fusion != FusionRRF {
		return nil
	}
	for _, kind := range pq.kinds {
		if !features.BoundSupported(kind) {
			return nil
		}
	}
	built := false
	for si, ar := range e.arenas {
		built = built || e.cells[si].usable(opt, len(ar.live))
	}
	if !built {
		return nil // skip the range counts: no shard can take part with cells
	}
	n0 := make([]int, len(e.arenas))
	n, usable := 0, 0
	for si, ar := range e.arenas {
		n0[si] = len(ar.live)
		if !opt.NoPruning {
			n0[si] = ar.countOverlapping(qbucket)
		}
		n += n0[si]
		if e.cells[si].usable(opt, n0[si]) {
			usable++
		}
	}
	if usable == 0 || opt.K >= n {
		return nil
	}

	t := traversalPool.Get().(*traversal)
	*t = traversal{
		e: e, pq: pq, qbucket: qbucket, noPrune: opt.NoPruning, k: opt.K, n: n, full: uint8(1)<<nk - 1,
		cells: t.cells[:0], kinds: t.kinds, rows: t.rows[:0],
		base: t.base[:0], rowAt: t.rowAt, gen: t.gen + 1,
		top: t.top[:0], single: t.single[:0],
		iota: t.iota, members: t.members, dist: t.dist,
	}
	slots := 0
	for si, ar := range e.arenas {
		t.base = append(t.base, slots)
		slots += len(ar.ents)
		switch {
		case n0[si] == 0:
		case e.cells[si].usable(opt, n0[si]):
			stats.PrunedShards++
			for ci := 0; ci < e.cells[si].n; ci++ {
				t.cells = append(t.cells, travCell{shard: int32(si), cell: int32(ci)})
			}
		default:
			stats.ExactShards++
			t.cells = append(t.cells, travCell{shard: int32(si), cell: noSlot})
		}
		stats.BaseRows += int64(n0[si])
	}
	if cap(t.rowAt) < slots {
		t.rowAt = make([]uint64, slots)
		t.gen = 1
	}
	t.rowAt = t.rowAt[:slots]
	if t.gen == 0 { // wrapped: no stale entry may read as current
		clear(t.rowAt)
		t.gen = 1
	}

	// Every kind's bounds, one batched sweep per shard's centroid column.
	if cap(t.kinds) < nk {
		t.kinds = make([]travKind, nk)
	}
	t.kinds = t.kinds[:nk]
	for ki, kind := range pq.kinds {
		tk := &t.kinds[ki]
		if cap(tk.bound) < len(t.cells) {
			tk.bound = make([]float64, len(t.cells))
			tk.cells = make([]int32, len(t.cells))
		}
		tk.bound, tk.cells = tk.bound[:len(t.cells)], tk.cells[:len(t.cells)]
		tk.pend, tk.depth, tk.term = tk.pend[:0], 0, 1/(rrfC+1)
		for g := 0; g < len(t.cells); {
			c := t.cells[g]
			if c.cell == noSlot {
				tk.bound[g] = 0
				g++
				continue
			}
			cl := e.cells[c.shard]
			for len(t.iota) < cl.n {
				t.iota = append(t.iota, int32(len(t.iota)))
			}
			features.BatchLowerBound(kind, pq.vec[ki], cl.cent[kind], t.iota[:cl.n], cl.rad[kind], tk.bound[g:g+cl.n])
			t.cellEvals += int64(cl.n)
			g += cl.n
		}
		for g := range tk.cells {
			tk.cells[g] = int32(g)
		}
		for i := len(tk.cells)/2 - 1; i >= 0; i-- {
			tk.siftCell(i)
		}
	}
	return t
}

// run walks the cells until the search is decided and returns the ranked
// (ID, distance) list with the stop reason.
func (t *traversal) run(ctx context.Context) ([]similarity.Ranked, string, error) {
	nk := len(t.kinds)
	sweepCost := int64(t.n) * int64(nk)
	for {
		if err := ctx.Err(); err != nil {
			return nil, "", err
		}
		ki, done := t.next()
		if done {
			return t.ranked(), StopThreshold, nil
		}
		if t.rowEvals+t.cellEvals > sweepCost {
			t.sweepRest()
			return t.ranked(), StopSweep, nil
		}
		t.deepen(ki)
	}
}

// sweepRest sweeps every remaining cell of every kind, releasing every
// row (a single kind stops at K): the exact sweep, paid once per row and
// kind.
func (t *traversal) sweepRest() {
	for ki := range t.kinds {
		for !t.kinds[ki].exhausted() && (len(t.kinds) > 1 || len(t.single) < t.k) {
			t.deepen(ki)
		}
	}
}

// next decides the search or picks the kind to deepen. While the top K
// is incomplete or holds a partly released row it deepens a kind that
// row is missing; otherwise verify decides the stop.
func (t *traversal) next() (ki int, done bool) {
	if len(t.kinds) == 1 {
		return 0, len(t.single) >= t.k || t.kinds[0].exhausted()
	}
	if t.allExhausted() { // every row is released everywhere: top is exact
		return 0, true
	}
	if len(t.top) < t.k {
		return t.widest(t.full), false
	}
	for _, ri := range t.top {
		if m := t.rows[ri].mask; m != t.full {
			return t.widest(t.full &^ m), false
		}
	}
	if missing, ok := t.verify(); !ok {
		return t.widest(missing), false
	}
	return 0, true
}

// reaches reports whether a row whose score bound is u might still tie or
// beat the score kth.
func reaches(u, kth float64) bool { return u*(1+rrfSlack) >= kth }

// bound is the best score a partially released row can still reach.
func (t *traversal) bound(r *travRow) float64 {
	u := r.w
	for ki := range t.kinds {
		if r.mask&(1<<ki) == 0 {
			u += t.kinds[ki].term
		}
	}
	return u
}

func (t *traversal) allExhausted() bool {
	for ki := range t.kinds {
		if !t.kinds[ki].exhausted() {
			return false
		}
	}
	return true
}

// widest picks, among the kinds in mask that still hold unreleased rows,
// the one with the largest bound term (the shallowest), ties to the first
// requested; any such kind if mask names none.
func (t *traversal) widest(mask uint8) int {
	best := -1
	for pass := 0; pass < 2 && best < 0; pass++ {
		for ki := range t.kinds {
			tk := &t.kinds[ki]
			if mask&(1<<ki) == 0 || tk.exhausted() {
				continue
			}
			if best < 0 || tk.depth < t.kinds[best].depth {
				best = ki
			}
		}
		mask = t.full
	}
	return best
}

// verify recomputes the stop condition from scratch: the exact top K of
// the fully released rows, and every other released row's bound against
// the K-th score. On failure it returns the kinds a blocking row is
// missing. A row released in no kind needs no check: it scores at most
// sum_k 1/(C + d_k + 1), strictly below any fully released row's score,
// whose rank in each kind is at most d_k.
func (t *traversal) verify() (missing uint8, ok bool) {
	h := similarity.NewTopK(t.k)
	for ri := range t.rows {
		if r := &t.rows[ri]; r.mask == t.full {
			h.Push(similarity.Ranked{ID: r.id, Distance: -r.w})
		}
	}
	if h.Len() < t.k {
		return t.full, false
	}
	worst, _ := h.Worst()
	kth := -worst.Distance
	for ri := range t.rows {
		if r := &t.rows[ri]; r.mask != t.full && reaches(t.bound(r), kth) {
			return t.full &^ r.mask, false
		}
	}
	return 0, true
}

// ranked returns the decided top K as (ID, distance), best first. Single
// kind: the first K releases. Fused: the exact top K of the fully
// released rows.
func (t *traversal) ranked() []similarity.Ranked {
	if len(t.kinds) == 1 {
		return t.single[:min(t.k, len(t.single))]
	}
	h := similarity.NewTopK(t.k)
	for ri := range t.rows {
		if r := &t.rows[ri]; r.mask == t.full {
			h.Push(similarity.Ranked{ID: r.id, Distance: -r.w})
		}
	}
	out := h.Sorted()
	rrfDistances(out, len(t.kinds))
	return out
}

// deepen sweeps kind ki's next cell and releases what the next cell's
// bound certifies.
func (t *traversal) deepen(ki int) {
	tk := &t.kinds[ki]
	if len(tk.cells) > 0 {
		c := t.cells[tk.popCell()]
		ar := t.e.arenas[c.shard]
		src := ar.live
		if c.cell != noSlot {
			src = t.e.cells[c.shard].members[c.cell]
		}
		rows := src
		if !t.noPrune {
			t.members = ar.overlapping(t.members[:0], src, t.qbucket)
			rows = t.members
		}
		if cap(t.dist) < len(rows) {
			t.dist = make([]float64, len(rows))
		}
		dist := t.dist[:len(rows)]
		ar.distances(t.pq.kinds[ki], t.pq.vec[ki], rows, dist)
		t.rowEvals += int64(len(rows))
		for i, s := range rows {
			t.push(tk, parked{d: dist[i], shard: c.shard, slot: s})
		}
	}
	next := math.Inf(1)
	if len(tk.cells) > 0 {
		next = tk.bound[tk.cells[0]]
	}
	for len(tk.pend) > 0 && (tk.pend[0].d < next || len(tk.cells) == 0) {
		if len(t.kinds) == 1 && len(t.single) == t.k {
			return // single kind: the top K are out
		}
		t.released(ki, t.popRow(tk))
	}
}

// id returns a parked row's key-frame ID.
func (t *traversal) id(p *parked) int64 { return t.e.arenas[p.shard].ids[p.slot] }

// rowFor returns the row index of a parked row, adding the row on first
// sight.
func (t *traversal) rowFor(p *parked) int32 {
	i := t.base[p.shard] + int(p.slot)
	if e := t.rowAt[i]; uint32(e>>32) == t.gen {
		return int32(uint32(e))
	}
	ri := int32(len(t.rows))
	t.rowAt[i] = uint64(t.gen)<<32 | uint64(uint32(ri))
	t.rows = append(t.rows, travRow{id: t.id(p)})
	return ri
}

// released records p as kind ki's next release.
func (t *traversal) released(ki int, p parked) {
	tk := &t.kinds[ki]
	tk.depth++
	tk.term = 1 / (rrfC + float64(tk.depth+1))
	if len(t.kinds) == 1 {
		t.single = append(t.single, similarity.Ranked{ID: t.id(&p), Distance: p.d})
		return
	}
	ri := t.rowFor(&p)
	r := &t.rows[ri]
	r.rank[ki] = int32(tk.depth)
	r.mask |= 1 << ki
	if r.mask == t.full {
		// The reference's per-candidate sum, in kind order.
		var s float64
		for k := range t.kinds {
			s += 1 / (rrfC + float64(r.rank[k]))
		}
		r.w = s
	} else {
		r.w += 1 / (rrfC + float64(tk.depth))
	}
	t.reposition(ri)
}

// better orders rows by w, descending, ties by ID.
func (t *traversal) better(a, b int32) bool {
	ra, rb := &t.rows[a], &t.rows[b]
	return ra.w > rb.w || ra.w == rb.w && ra.id < rb.id
}

// reposition restores top after row ri's w rose.
func (t *traversal) reposition(ri int32) {
	top := t.top
	i := len(top)
	if t.rows[ri].inTop {
		for j, x := range top {
			if x == ri {
				i = j
				break
			}
		}
	} else {
		if len(top) == t.k {
			last := top[len(top)-1]
			if !t.better(ri, last) {
				return
			}
			t.rows[last].inTop = false
			top = top[:len(top)-1]
			i--
		}
		t.rows[ri].inTop = true
		top = append(top, ri)
	}
	for ; i > 0 && t.better(top[i], top[i-1]); i-- {
		top[i], top[i-1] = top[i-1], top[i]
	}
	for ; i+1 < len(top) && t.better(top[i+1], top[i]); i++ {
		top[i], top[i+1] = top[i+1], top[i]
	}
	t.top = top
}

// cellLess orders unswept cells by (bound, index).
func (k *travKind) cellLess(a, b int32) bool {
	ba, bb := k.bound[a], k.bound[b]
	return ba < bb || ba == bb && a < b
}

func (k *travKind) siftCell(i int) {
	h := k.cells
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		if r := l + 1; r < len(h) && k.cellLess(h[r], h[l]) {
			l = r
		}
		if !k.cellLess(h[l], h[i]) {
			return
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
}

func (k *travKind) popCell() int32 {
	h := k.cells
	g := h[0]
	last := len(h) - 1
	h[0] = h[last]
	k.cells = h[:last]
	k.siftCell(0)
	return g
}

// parkedLess orders swept rows by (distance, key-frame ID): the
// reference's rank order, -0 equal to +0.
func (t *traversal) parkedLess(a, b *parked) bool {
	return a.d < b.d || a.d == b.d && t.id(a) < t.id(b)
}

func (t *traversal) push(k *travKind, p parked) {
	k.pend = append(k.pend, p)
	h := k.pend
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !t.parkedLess(&h[i], &h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (t *traversal) popRow(k *travKind) parked {
	h := k.pend
	p := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	k.pend = h
	for i := 0; ; {
		l := 2*i + 1
		if l >= len(h) {
			break
		}
		if r := l + 1; r < len(h) && t.parkedLess(&h[r], &h[l]) {
			l = r
		}
		if !t.parkedLess(&h[l], &h[i]) {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	return p
}
