// Coarse-quantized candidate pruning: per-shard cell indexes over the
// packed arena columns that let scanShard take its rows from a surviving
// subset of cells instead of every live row.
//
// Each shard's rows are grouped into cells by a deterministic coarse
// k-means over the naive-signature column (the cheapest kind that still
// tracks visual identity: 75 floats vs 674 for the full row). Every cell
// carries, for every descriptor kind, the member mean vector and a radius
// — the maximum distance from any member that stores the kind to that
// mean. All seven kind distances are metrics (see features/bounds.go),
// so for a query q the triangle inequality turns each (centroid, radius)
// pair into a certified lower bound on the distance from q to any member,
// and the scan can rank cells by bound before touching their rows:
//
//   - single-kind searches sweep cells in ascending bound order and stop
//     as soon as the bound exceeds the worst kept top-K distance — an
//     exact search, bit-identical to the full sweep (search_test.go and
//     cells_test.go pin this).
//   - fused multi-kind searches cannot terminate exactly (rank fusion
//     depends on every candidate's rank, not just the top K), so they
//     probe the best-bounded cells up to a row budget and fuse over the
//     probed rows; eval/recall.go certifies recall against the exact
//     reference.
//
// Whenever bounds cannot guarantee recall, scanShard takes the exact row
// sources instead (see plan): shards below MinShardRows, unbuilt indexes,
// K <= 0 (full-ranking queries), unsupported kinds, or probe budgets that
// reach the whole candidate set anyway.
//
// Churn contract: the index mutates only under the engine write lock, on
// the same paths that mutate the arenas — incremental nearest-centroid
// assignment on putEntry, detach on delete's swap-remove, detach +
// reassign on reindex repack — and rebuilds from scratch (still under the
// write lock, on the mutating call) once enough mutations accumulate, so
// drifted centroids cannot decay pruning power without bound. Radii only
// ever widen between rebuilds, so bounds stay sound no matter how stale
// the centroids are. No new locks: cbvrvet lockorder sees the same
// Engine.mu ordering as before.
//
// Rebuilds are pure functions of shard contents: rows are processed in
// key-frame-ID order, seeding, Lloyd iterations and all tie-breaks are
// index-deterministic, so the same set of entries yields the same cells
// regardless of insertion order (FuzzCellRebuildDeterminism pins this).
package core

import (
	"cmp"
	"math"
	"slices"

	"cbvr/internal/features"
	"cbvr/internal/similarity"
)

// CellOptions tunes the per-shard candidate pruner. The zero value means
// defaults; SearchOptions.NoCellPruning forces the exact sweep per call.
type CellOptions struct {
	// TargetCellSize is the intended rows-per-cell at rebuild time
	// (default 96). The cell count is ceil(rows / TargetCellSize).
	TargetCellSize int
	// MinShardRows is the per-shard candidate floor below which searches
	// always take the exact sweep (default 512): tiny shards gain nothing
	// from pruning and the exact path keeps small-corpus results
	// bit-identical to the reference by construction.
	MinShardRows int
	// ProbeFraction is the fraction of a shard's candidates a fused
	// multi-kind search scores, taken from the best-ranked cells
	// (default 0.07). Higher is slower and more exact.
	ProbeFraction float64
	// MinProbeRows floors the fused probe budget (default 400): rank
	// fusion over a probed subset drifts hardest on mid-size shards,
	// where tail-rank compression noise rivals the head's score gaps, so
	// small shards probe proportionally more to hold the recall floor.
	MinProbeRows int
	// RebuildFraction triggers a full deterministic rebuild once the
	// number of mutations since the last build exceeds this fraction of
	// the shard's live rows (default 0.35). Rebuild cost is amortised
	// geometrically against the churn that made it necessary.
	RebuildFraction float64
}

func (o CellOptions) withDefaults() CellOptions {
	if o.TargetCellSize <= 0 {
		o.TargetCellSize = 96
	}
	if o.MinShardRows <= 0 {
		o.MinShardRows = 512
	}
	if o.ProbeFraction <= 0 {
		o.ProbeFraction = 0.07
	}
	if o.MinProbeRows <= 0 {
		o.MinProbeRows = 400
	}
	if o.RebuildFraction <= 0 {
		o.RebuildFraction = 0.35
	}
	return o
}

const (
	// cellRouteKind is the kind rows are clustered on. The naive
	// signature is the cheapest column (75 floats) that still varies with
	// overall frame appearance, so routing on it keeps rebuild and
	// incremental-assignment cost low while the per-kind radii make the
	// resulting cells usable for bounds in every kind.
	cellRouteKind = features.KindNaive
	// cellFitSampleMax caps the rows the Lloyd iterations fit on; the
	// final assignment pass still visits every row.
	cellFitSampleMax = 2048
	// cellLloydIters fixes the k-means iteration count — fixed, not
	// convergence-tested, so rebuild cost and determinism are exact.
	cellLloydIters = 4
	// maxCellsPerShard bounds the per-cell metadata (and the per-query
	// bound computation) for huge shards.
	maxCellsPerShard = 1024
)

// shardCells is one shard's cell index. All fields are guarded by the
// engine lock exactly like the shard's arena: mutations (assign, detach,
// rebuild) require the write lock, scans read under the read lock.
type shardCells struct {
	cfg CellOptions

	built bool
	n     int // number of cells

	// cent[k] packs cell ci's kind-k centroid at [ci*stride,(ci+1)*stride);
	// rad[k][ci] bounds any kind-k-bearing member's distance to it.
	// A cell with no member storing kind k has rad +Inf (bound 0: never
	// prunes, never lies).
	cent [features.NumKinds][]float64
	rad  [features.NumKinds][]float64

	members [][]int32 // cell -> member slots
	cellOf  []int32   // slot -> cell; noSlot while free or unassigned
	posIn   []int32   // slot -> index into members[cellOf[slot]]

	since   int // mutations since the last rebuild
	rebuilt int // completed rebuilds (stats)
}

func newShardCells(cfg CellOptions) *shardCells {
	return &shardCells{cfg: cfg}
}

// plan reports whether a scan over n0 range-pruned candidate rows may
// take its rows from the cell index, and for a fused (multi-kind) request
// the row budget it may probe. ok=false selects the exact sweep: tiny
// shards, unbuilt indexes, full-ranking (K <= 0) queries, kinds without
// a certified bound, and requests the cells cannot shrink.
func (c *shardCells) plan(opt *SearchOptions, kinds []features.Kind, n0 int) (budget int, ok bool) {
	if !c.built || opt.NoCellPruning ||
		opt.K <= 0 || n0 < c.cfg.MinShardRows || c.n == 0 {
		return 0, false
	}
	for _, kind := range kinds {
		if !features.BoundSupported(kind) {
			return 0, false
		}
	}
	if len(kinds) == 1 {
		return 0, opt.K < n0 // otherwise the heap could never prune a cell
	}
	budget = max(c.cfg.MinProbeRows, int(c.cfg.ProbeFraction*float64(n0)))
	// Brownout shrinks the fused budget toward the MinProbeRows recall
	// floor; at level 0 this is a no-op and the arithmetic never runs.
	budget = brownedBudget(budget, c.cfg.MinProbeRows, opt.Brownout)
	budget = max(budget, opt.K)
	return budget, budget < n0 // probing everything is just the exact sweep
}

// sortAscending fills ord with 0..len(key)-1 in ascending key order, ties
// by index, so every visit order derived from it is deterministic.
func sortAscending(ord []int32, key []float64) {
	for i := range ord {
		ord[i] = int32(i)
	}
	slices.SortFunc(ord, func(a, b int32) int {
		ka, kb := key[a], key[b]
		switch {
		case ka < kb:
			return -1
		case ka > kb:
			return 1
		case a < b:
			return -1
		}
		return 1
	})
}

// visitOrder fills sc.cellKey and sc.cellOrd with the query's per-cell
// visit keys and the ascending visit order, returning the centroid
// evaluations paid. The two request shapes want different keys:
//
// A single-kind request needs the radius-clamped lower bound: the scan's
// heap cut-off (stop at the first cell whose key exceeds the worst kept
// distance) is exact only because the key is a true bound.
//
// A fused request ranks cells by reciprocal-rank fusion of their per-kind
// query→centroid distances — the same scale-free rank semantics the
// probed candidates are fused under, so a cell near the query in several
// kinds is probed first regardless of each kernel's magnitude. (Neither
// the radius-clamped bound — which saturates to 0 on every wide cell and
// degenerates into index-order ties exactly where ordering matters most —
// nor a fixed-scale distance sum — which lets the largest-magnitude
// kernel drown out the kinds that actually separate the data — survives
// contact with rank fusion.) The RRF score is negated so ascending order
// visits the best-fused cell first.
func (c *shardCells) visitOrder(pq *PackedQuery, sc *scanScratch) (cellEvals int64) {
	sc.growCells(c.n)
	if len(pq.kinds) == 1 {
		kind := pq.kinds[0]
		features.BatchLowerBound(kind, pq.vec[0], c.cent[kind], c.rad[kind], sc.cellKey)
	} else {
		clear(sc.cellKey)
		// cellOrd is free until the visit-order sort below: every cell
		// in index order, the rows of one sweep per centroid column.
		for ci := range sc.cellOrd {
			sc.cellOrd[ci] = int32(ci)
		}
		for ki, kind := range pq.kinds {
			features.BatchDistance(kind, pq.vec[ki], c.cent[kind], sc.cellOrd, sc.cellDist)
			sortAscending(sc.cellRank, sc.cellDist)
			for r, ci := range sc.cellRank {
				sc.cellKey[ci] -= 1 / float64(similarity.RRFConstant+r+1)
			}
		}
	}
	sortAscending(sc.cellOrd, sc.cellKey)
	return int64(c.n) * int64(len(pq.kinds))
}

// ensureSlots grows the slot-indexed tables to cover the arena's slots.
func (c *shardCells) ensureSlots(nSlots int) {
	for len(c.cellOf) < nSlots {
		c.cellOf = append(c.cellOf, noSlot)
		c.posIn = append(c.posIn, noSlot)
	}
}

// centRow returns cell ci's packed centroid of the kind.
func (c *shardCells) centRow(kind features.Kind, ci int32) []float64 {
	stride := features.Stride(kind)
	off := int(ci) * stride
	return c.cent[kind][off : off+stride : off+stride]
}

// route picks the cell for a slot: nearest naive-signature centroid, ties
// to the lowest cell index. Rows without a naive signature go to cell 0 —
// any assignment is sound (radii widen to cover it), routing quality only
// affects pruning power.
func (c *shardCells) route(ar *shardArena, slot int32) int32 {
	if !ar.hasKind(cellRouteKind, slot) {
		return 0
	}
	return int32(nearestCentroid(ar.row(cellRouteKind, slot), c.cent[cellRouteKind], c.n))
}

// nearestCentroid returns the index of the routing-kind centroid nearest
// to v among the first k packed in cents, ties to the lowest index.
func nearestCentroid(v, cents []float64, k int) int {
	stride := features.Stride(cellRouteKind)
	best, bestD := 0, math.Inf(1)
	for ci := 0; ci < k; ci++ {
		if d := features.PairDistance(cellRouteKind, v, cents[ci*stride:(ci+1)*stride:(ci+1)*stride]); d < bestD {
			best, bestD = ci, d
		}
	}
	return best
}

// assign files a packed slot into its nearest cell and widens that cell's
// radii to keep every kind's bound valid for the new member. Callers must
// hold the engine write lock; no-op before the first build.
func (c *shardCells) assign(ar *shardArena, slot int32) {
	if !c.built {
		return
	}
	c.ensureSlots(len(ar.ents))
	ci := c.route(ar, slot)
	c.cellOf[slot] = ci
	c.posIn[slot] = int32(len(c.members[ci]))
	c.members[ci] = append(c.members[ci], slot)
	for k := range c.rad {
		kind := features.Kind(k)
		if !ar.hasKind(kind, slot) {
			continue
		}
		d := features.PairDistance(kind, ar.row(kind, slot), c.centRow(kind, ci))
		if d > c.rad[k][ci] {
			c.rad[k][ci] = d
		}
	}
}

// detach lazily invalidates a slot's membership (delete and reindex
// swap-remove paths): the slot leaves its cell's member list, radii stay
// as-is — still upper bounds for every remaining member. Callers must
// hold the engine write lock.
func (c *shardCells) detach(slot int32) {
	if !c.built || int(slot) >= len(c.cellOf) {
		return
	}
	ci := c.cellOf[slot]
	if ci == noSlot {
		return
	}
	mem := c.members[ci]
	pi := c.posIn[slot]
	last := int32(len(mem) - 1)
	moved := mem[last]
	mem[pi] = moved
	c.posIn[moved] = pi
	c.members[ci] = mem[:last]
	c.cellOf[slot] = noSlot
	c.posIn[slot] = noSlot
}

// onInsert wires putEntry into the index: incremental assignment plus the
// rebuild check.
func (c *shardCells) onInsert(ar *shardArena, slot int32) {
	c.assign(ar, slot)
	c.noteMutation(ar)
}

// onRemove wires delete's arena swap-remove: lazy invalidation plus the
// rebuild check. Must run before the arena reuses the slot.
func (c *shardCells) onRemove(ar *shardArena, slot int32) {
	c.detach(slot)
	c.noteMutation(ar)
}

// onRepack wires reindex's in-place row replacement: the slot's packed
// vectors changed, so its old membership (and the bounds derived from it)
// no longer describes it — detach and re-assign against the new vectors.
func (c *shardCells) onRepack(ar *shardArena, slot int32) {
	c.detach(slot)
	c.assign(ar, slot)
	c.noteMutation(ar)
}

// noteMutation counts churn and rebuilds once it exceeds
// RebuildFraction of the live rows (or immediately, the first time the
// shard crosses the MinShardRows floor). Runs on the mutating call under
// the already-held engine write lock — no background goroutine, no new
// locks, so the lock-order directives are untouched.
func (c *shardCells) noteMutation(ar *shardArena) {
	c.since++
	n := len(ar.live)
	if n < c.cfg.MinShardRows {
		return // exact path below the floor; building would be wasted work
	}
	if !c.built || float64(c.since) > c.cfg.RebuildFraction*float64(n) {
		c.rebuild(ar)
	}
}

// rebuild reconstructs the whole index from the shard's current contents.
// Determinism contract: every step — ordering, sampling, seeding, Lloyd
// updates, assignment, empty-cell compaction, centroid means, radii — is
// a pure function of the (ID-sorted) member rows, so arenas holding the
// same entries produce identical cells regardless of insertion order or
// slot numbering.
func (c *shardCells) rebuild(ar *shardArena) {
	c.built = true
	c.since = 0
	c.rebuilt++
	c.ensureSlots(len(ar.ents))

	n := len(ar.live)
	slots := slices.Clone(ar.live)
	slices.SortFunc(slots, func(a, b int32) int { return cmp.Compare(ar.ents[a].id, ar.ents[b].id) })

	k := (n + c.cfg.TargetCellSize - 1) / c.cfg.TargetCellSize
	if k > maxCellsPerShard {
		k = maxCellsPerShard
	}
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}

	// Fit routing centroids on (a sample of) the rows that carry the
	// routing kind; rows without it all land in cell 0.
	routable := make([]int32, 0, n)
	for _, s := range slots {
		if ar.hasKind(cellRouteKind, s) {
			routable = append(routable, s)
		}
	}
	stride := features.Stride(cellRouteKind)
	var fit []float64
	if len(routable) > 0 {
		step := 1
		if len(routable) > cellFitSampleMax {
			step = (len(routable) + cellFitSampleMax - 1) / cellFitSampleMax
		}
		sample := make([]int32, 0, cellFitSampleMax)
		for i := 0; i < len(routable); i += step {
			sample = append(sample, routable[i])
		}
		if k > len(sample) {
			k = len(sample)
		}
		fit = fitRouteCentroids(ar, sample, k)
		k = len(fit) / stride
	} else {
		k = 1
		fit = make([]float64, stride)
	}

	// Assignment pass over every row, in ID order so member lists are
	// content-deterministic.
	members := make([][]int32, k)
	for _, s := range slots {
		best := 0
		if ar.hasKind(cellRouteKind, s) {
			best = nearestCentroid(ar.row(cellRouteKind, s), fit, k)
		}
		members[best] = append(members[best], s)
	}
	// Compact empty cells away (index order preserved, so deterministic).
	c.members = members[:0:cap(members)]
	for _, mem := range members {
		if len(mem) > 0 {
			c.members = append(c.members, mem)
		}
	}
	c.n = len(c.members)

	// Slot tables: clear everything (free slots included), then file the
	// members.
	for i := range c.cellOf {
		c.cellOf[i] = noSlot
		c.posIn[i] = noSlot
	}
	for ci, mem := range c.members {
		for pi, s := range mem {
			c.cellOf[s] = int32(ci)
			c.posIn[s] = int32(pi)
		}
	}

	// Per-kind centroids (member means, ID-ordered summation) and radii.
	for kd := range c.cent {
		kind := features.Kind(kd)
		st := features.Stride(kind)
		cent := make([]float64, c.n*st)
		rad := make([]float64, c.n)
		for ci, mem := range c.members {
			row := cent[ci*st : (ci+1)*st]
			cnt := 0
			for _, s := range mem {
				if !ar.hasKind(kind, s) {
					continue
				}
				v := ar.row(kind, s)
				for i := range row {
					row[i] += v[i]
				}
				cnt++
			}
			if cnt == 0 {
				rad[ci] = math.Inf(1) // bound degenerates to 0: safe, inert
				continue
			}
			inv := 1 / float64(cnt)
			for i := range row {
				row[i] *= inv
			}
			r := 0.0
			for _, s := range mem {
				if !ar.hasKind(kind, s) {
					continue
				}
				if d := features.PairDistance(kind, ar.row(kind, s), row); d > r {
					r = d
				}
			}
			rad[ci] = r
		}
		c.cent[kd] = cent
		c.rad[kd] = rad
	}
}

// fitRouteCentroids runs the deterministic coarse k-means on the sampled
// routing vectors: farthest-point seeding from the lowest-ID row, then a
// fixed number of Lloyd iterations with lowest-index tie-breaks. Returns
// k' <= k packed centroids (seeding stops early once every remaining row
// duplicates a seed).
func fitRouteCentroids(ar *shardArena, sample []int32, k int) []float64 {
	stride := features.Stride(cellRouteKind)
	vec := func(s int32) []float64 { return ar.row(cellRouteKind, s) }

	// Farthest-point seeding. minD[i] tracks sample i's distance to its
	// nearest chosen seed.
	seeds := make([]int32, 1, k)
	seeds[0] = sample[0]
	minD := make([]float64, len(sample))
	for i, s := range sample {
		minD[i] = features.PairDistance(cellRouteKind, vec(s), vec(seeds[0]))
	}
	for len(seeds) < k {
		best, bestD := -1, 0.0
		for i, d := range minD {
			if d > bestD {
				bestD = d
				best = i
			}
		}
		if best < 0 {
			break // every remaining row coincides with a seed
		}
		ns := sample[best]
		seeds = append(seeds, ns)
		for i, s := range sample {
			if d := features.PairDistance(cellRouteKind, vec(s), vec(ns)); d < minD[i] {
				minD[i] = d
			}
		}
	}
	k = len(seeds)

	cents := make([]float64, k*stride)
	for ci, s := range seeds {
		copy(cents[ci*stride:(ci+1)*stride], vec(s))
	}
	sums := make([]float64, k*stride)
	counts := make([]int, k)
	for it := 0; it < cellLloydIters; it++ {
		for i := range sums {
			sums[i] = 0
		}
		for i := range counts {
			counts[i] = 0
		}
		for _, s := range sample {
			v := vec(s)
			best := nearestCentroid(v, cents, k)
			row := sums[best*stride : (best+1)*stride]
			for j, x := range v {
				row[j] += x
			}
			counts[best]++
		}
		for ci := 0; ci < k; ci++ {
			if counts[ci] == 0 {
				continue // keep the previous centroid; still deterministic
			}
			inv := 1 / float64(counts[ci])
			row := cents[ci*stride : (ci+1)*stride]
			srow := sums[ci*stride : (ci+1)*stride]
			for j := range row {
				row[j] = srow[j] * inv
			}
		}
	}
	return cents
}

// CellIndexStats summarises the engine's cell indexes (cbvrctl stats and
// the server stats endpoint).
type CellIndexStats struct {
	Shards      int `json:"shards"`
	BuiltShards int `json:"built_shards"`
	Cells       int `json:"cells"`
	IndexedRows int `json:"indexed_rows"`
	Rebuilds    int `json:"rebuilds"`
}

// CellStats reports the current state of the per-shard cell indexes.
func (e *Engine) CellStats() (CellIndexStats, error) {
	if err := e.warmCache(); err != nil {
		return CellIndexStats{}, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	st := CellIndexStats{Shards: len(e.cells)}
	for _, c := range e.cells {
		if c == nil || !c.built {
			continue
		}
		st.BuiltShards++
		st.Cells += c.n
		st.Rebuilds += c.rebuilt
		for _, mem := range c.members {
			st.IndexedRows += len(mem)
		}
	}
	return st, nil
}
