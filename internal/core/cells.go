// Coarse-quantized candidate pruning: per-shard cell indexes over the
// packed arena columns that let a search take its rows from a surviving
// subset of cells instead of every live row.
//
// Each shard's rows are grouped into cells by a deterministic coarse
// k-means over the naive-signature column (the cheapest kind that still
// tracks visual identity: 75 floats vs 674 for the full row). Every cell
// carries, for every descriptor kind, the member mean vector and a radius
// — the maximum distance from any member that stores the kind to that
// mean. All seven kind distances are metrics (see features/bounds.go),
// so for a query q the triangle inequality turns each (centroid, radius)
// pair into a certified lower bound on the distance from q to any member.
// Two searches use the cells:
//
//   - single-kind and RRF-fused searches walk every shard's cells in
//     ascending bound order in one exact threshold traversal
//     (traverse.go), bit-identical to the full sweep;
//   - min-max fused searches probe the best-ranked cells up to a row
//     budget (plan, visitOrder) and fuse over the probed rows;
//     eval/recall_test.go holds them to a recall floor.
//
// The index's sizes are one package value, defaultCells; no option
// reaches them from outside the package.
//
// A shard takes the exact sweep instead whenever its cells cannot serve
// the request: below minShardRows, unbuilt, NoCellPruning or K <= 0; for
// the traversal, a kind without a certified bound; for the probe, a
// budget that reaches the whole candidate set.
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
//
// Rebuild cost: every sweep of one vector against many centroids or
// member rows is one batched 4-lane kernel call, and the Lloyd iterations
// and the final assignment of the sampled rows skip centroids with Elkan's
// triangle-inequality lower bounds, kept conservative by a relative
// slack so a skip never changes an assignment or a tie. The result is
// bit-identical to the scalar all-pairs rebuild kept in cells_test.go
// (TestCellRebuildMatchesReference).
package core

import (
	"cmp"
	"math"
	"slices"

	"cbvr/internal/features"
	"cbvr/internal/similarity"
)

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

// cellConfig sizes a shard's cell index and the min-max probe.
type cellConfig struct {
	targetCellSize int // rows per cell at rebuild: ceil(rows / targetCellSize) cells
	// minShardRows is the candidate count below which a shard takes the
	// exact sweep: tiny shards gain nothing from pruning.
	minShardRows    int
	probeFraction   float64 // share of a shard's candidates min-max probes (plan)
	minProbeRows    int     // floor of the min-max probe
	rebuildFraction float64 // mutations over live rows that trigger a rebuild
}

// defaultCells is every engine's cell configuration. Options.cells
// replaces it in the package's own tests, which need cells on corpora
// far below minShardRows.
var defaultCells = cellConfig{
	targetCellSize:  96,
	minShardRows:    512,
	probeFraction:   0.07,
	minProbeRows:    400,
	rebuildFraction: 0.35,
}

// shardCells is one shard's cell index. All fields are guarded by the
// engine lock exactly like the shard's arena: mutations (assign, detach,
// rebuild) require the write lock, scans read under the read lock.
type shardCells struct {
	cfg cellConfig

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

	// Sweep scratch for routing, rebuilds and radii, reused across calls
	// because every caller holds the engine write lock: ord is the index
	// list 0..n-1, cand a selection of centroids or member slots, dist
	// one sweep's distances.
	ord  []int32
	cand []int32
	dist []float64
	// routeEvals counts routing-distance evaluations, incremental
	// routing included (BenchmarkCellRebuild reports it per rebuild).
	routeEvals int64
}

func newShardCells(cfg cellConfig) *shardCells {
	return &shardCells{cfg: cfg}
}

// usable reports whether the cells can bound a search over n0 candidate
// rows: built, the shard at or above minShardRows, and not opted out.
func (c *shardCells) usable(opt *SearchOptions, n0 int) bool {
	return c.built && c.n > 0 && !opt.NoCellPruning && n0 >= c.cfg.minShardRows
}

// plan reports whether a min-max fused scan over n0 range-pruned
// candidate rows may probe the cell index, and the row budget it may
// probe: probeFraction of them, and at least minProbeRows and K.
// ok=false selects the exact sweep: unusable cells, K <= 0, and budgets
// that reach the whole candidate set anyway. The probe orders cells by
// visitOrder's fused centroid ranks and reads no bound, so any kind may
// take it.
func (c *shardCells) plan(opt *SearchOptions, n0 int) (budget int, ok bool) {
	if opt.K <= 0 || !c.usable(opt, n0) {
		return 0, false
	}
	budget = max(c.cfg.minProbeRows, int(c.cfg.probeFraction*float64(n0)), opt.K)
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

// visitOrder fills sc.cellKey and sc.cellOrd with the min-max probe's
// per-cell visit keys and the ascending visit order, returning the
// centroid evaluations paid. Cells are ranked by reciprocal-rank fusion
// of their per-kind query→centroid distances, so a cell near the query in
// several kinds is probed first regardless of each kernel's magnitude.
// (Neither the radius-clamped bound, which saturates to 0 on every wide
// cell and degenerates into index-order ties exactly where ordering
// matters most, nor a fixed-scale distance sum, which lets the
// largest-magnitude kernel drown out the kinds that separate the data,
// ranks cells well for a probe.) The RRF score is negated so ascending
// order visits the best-fused cell first.
func (c *shardCells) visitOrder(pq *PackedQuery, sc *scanScratch) (cellEvals int64) {
	sc.growCells(c.n)
	clear(sc.cellKey)
	// cellOrd is free until the visit-order sort below: every cell in
	// index order, the rows of one sweep per centroid column.
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
	return c.nearestCentroid(ar.row(cellRouteKind, slot), c.cent[cellRouteKind], c.n)
}

// sweep returns the kind's distances from q to the selected rows of col,
// one batched kernel call into the index's own buffer. The result is
// valid until the next sweep; callers hold the engine write lock.
func (c *shardCells) sweep(kind features.Kind, q, col []float64, rows []int32) []float64 {
	if cap(c.dist) < len(rows) {
		c.dist = make([]float64, len(rows))
	}
	d := c.dist[:len(rows)]
	features.BatchDistance(kind, q, col, rows, d)
	return d
}

// routeSweep is sweep over the routing kind, counted in routeEvals.
func (c *shardCells) routeSweep(q, col []float64, rows []int32) []float64 {
	c.routeEvals += int64(len(rows))
	return c.sweep(cellRouteKind, q, col, rows)
}

// firstK returns the index list 0..k-1, the rows of a sweep over every
// packed centroid.
func (c *shardCells) firstK(k int) []int32 {
	for i := len(c.ord); i < k; i++ {
		c.ord = append(c.ord, int32(i))
	}
	return c.ord[:k]
}

// nearestCentroid returns the index of the routing-kind centroid nearest
// to v among the first k packed in cents, ties to the lowest index.
func (c *shardCells) nearestCentroid(v, cents []float64, k int) int32 {
	return lowestNearest(c.routeSweep(v, cents, c.firstK(k)))
}

// lowestNearest returns the index of the smallest distance, ties to the
// lowest index.
func lowestNearest(d []float64) int32 {
	best, bestD := 0, math.Inf(1)
	for i, x := range d {
		if x < bestD {
			best, bestD = i, x
		}
	}
	return int32(best)
}

// cellBoundSlack is the relative margin of the k-means lower bounds. A
// naive distance is a sum of 25 correctly rounded square roots of three
// squares, so a computed distance is within ~30 ulps (relative 1e-14) of
// the exact one, and a bound carried through all of a rebuild's updates
// stays well inside 1e-9 of what it bounds.
const cellBoundSlack = 1e-9

// lowerBound is a certified lower bound on the exact distance whose
// computed value is d.
func lowerBound(d float64) float64 { return d * (1 - cellBoundSlack) }

// nearestBounded is nearestCentroid for a sampled row that was nearest to
// centroid prev before the last update and carries lb[ci], a lower bound
// on its distance to every current centroid (Elkan, "Using the triangle
// inequality to accelerate k-means", ICML 2003). It pays the distance to
// prev, then one batched sweep over the centroids whose bound does not
// exceed that distance by cellBoundSlack. A skipped centroid is strictly
// farther than prev even in computed distances, so it can neither win nor
// tie; among prev and the swept centroids the smallest distance wins,
// ties to the lowest index — nearestCentroid's answer, bit for bit. Every
// distance paid becomes the row's new bound.
func (c *shardCells) nearestBounded(v, cents []float64, prev int32, lb []float64) int32 {
	stride := len(v)
	off := int(prev) * stride
	dPrev := features.PairDistance(cellRouteKind, v, cents[off:off+stride:off+stride])
	c.routeEvals++
	lb[prev] = lowerBound(dPrev)
	cut := dPrev * (1 + cellBoundSlack)
	cand := c.cand[:0]
	for ci, l := range lb {
		if l <= cut && int32(ci) != prev {
			cand = append(cand, int32(ci))
		}
	}
	c.cand = cand
	best, bestD := prev, dPrev
	for j, d := range c.routeSweep(v, cents, cand) {
		ci := cand[j]
		if d < bestD || d == bestD && ci < best {
			best, bestD = ci, d
		}
		lb[ci] = lowerBound(d)
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
// rebuildFraction of the live rows (or immediately, the first time the
// shard crosses the minShardRows floor). Runs on the mutating call under
// the already-held engine write lock — no background goroutine, no new
// locks, so the lock-order directives are untouched.
func (c *shardCells) noteMutation(ar *shardArena) {
	c.since++
	n := len(ar.live)
	if n < c.cfg.minShardRows {
		return // exact path below the floor; building would be wasted work
	}
	if !c.built || float64(c.since) > c.cfg.rebuildFraction*float64(n) {
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

	k := (n + c.cfg.targetCellSize - 1) / c.cfg.targetCellSize
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
	step := 1
	var fit, lb []float64
	var near []int32
	if len(routable) > 0 {
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
		fit, near, lb = c.fitRouteCentroids(ar, sample, k)
		k = len(fit) / stride
	} else {
		k = 1
		fit = make([]float64, stride)
	}

	// Assignment pass over every row, in ID order so member lists are
	// content-deterministic. The sampled rows (every step-th routable
	// one) carry their Lloyd bounds; the others pay a full sweep.
	members := make([][]int32, k)
	ri := 0 // routable rows seen so far
	for _, s := range slots {
		best := int32(0)
		if ar.hasKind(cellRouteKind, s) {
			v := ar.row(cellRouteKind, s)
			if i := ri / step; ri%step == 0 {
				best = c.nearestBounded(v, fit, near[i], lb[i*k:(i+1)*k])
			} else {
				best = c.nearestCentroid(v, fit, k)
			}
			ri++
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

	// Per-kind centroids (member means, ID-ordered summation) and radii,
	// one batched sweep of the centroid against the members storing the
	// kind. Every kind's kernel is exactly symmetric, so the sweep has
	// the bits of the member-to-centroid pair distances.
	for kd := range c.cent {
		kind := features.Kind(kd)
		st := features.Stride(kind)
		cent := make([]float64, c.n*st)
		rad := make([]float64, c.n)
		for ci, mem := range c.members {
			rows := mem
			if ar.missing[kind] > 0 {
				rows = c.cand[:0]
				for _, s := range mem {
					if ar.hasKind(kind, s) {
						rows = append(rows, s)
					}
				}
				c.cand = rows
			}
			if len(rows) == 0 {
				rad[ci] = math.Inf(1) // bound degenerates to 0: safe, inert
				continue
			}
			row := cent[ci*st : (ci+1)*st]
			for _, s := range rows {
				v := ar.row(kind, s)
				for i := range row {
					row[i] += v[i]
				}
			}
			inv := 1 / float64(len(rows))
			for i := range row {
				row[i] *= inv
			}
			r := 0.0
			for _, d := range c.sweep(kind, row, ar.cols[kind], rows) {
				if d > r {
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
// fixed number of Lloyd iterations with lowest-index tie-breaks. It
// returns k' <= k packed centroids (seeding stops early once every
// remaining row duplicates a seed), each sample row's centroid in the
// last iteration, and each row's lower bounds on its distances to the
// returned centroids, row i's at lb[i*k':(i+1)*k'].
//
// Seeding sweeps every seed against the whole sample, which is the first
// iteration's distance matrix (the kernel is symmetric), so the first
// iteration pays no evaluation and starts the bounds exact. Later
// iterations go through nearestBounded, and each centroid update lowers
// the row's bound on that centroid by how far it moved, plus the slack.
// The bounds live only for one rebuild: m*k' float64s, at most 16 MiB
// (cellFitSampleMax rows by maxCellsPerShard centroids).
func (c *shardCells) fitRouteCentroids(ar *shardArena, sample []int32, k int) (cents []float64, near []int32, lb []float64) {
	stride := features.Stride(cellRouteKind)
	col := ar.cols[cellRouteKind]
	vec := func(s int32) []float64 { return ar.row(cellRouteKind, s) }
	m := len(sample)

	// Farthest-point seeding. minD[i] tracks sample i's distance to its
	// nearest chosen seed, lb[i*k+j] its distance to seed j.
	lb = make([]float64, m*k)
	minD := make([]float64, m)
	seeds := make([]int32, 0, k)
	for ns := sample[0]; ; {
		j := len(seeds)
		seeds = append(seeds, ns)
		for i, d := range c.routeSweep(vec(ns), col, sample) {
			lb[i*k+j] = d
			if j == 0 || d < minD[i] {
				minD[i] = d
			}
		}
		if len(seeds) == k {
			break
		}
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
		ns = sample[best]
	}
	if kk := len(seeds); kk < k {
		for i := 0; i < m; i++ {
			copy(lb[i*kk:(i+1)*kk], lb[i*k:i*k+kk])
		}
		k = kk
		lb = lb[:m*k]
	}

	cents = make([]float64, k*stride)
	for ci, s := range seeds {
		copy(cents[ci*stride:(ci+1)*stride], vec(s))
	}
	near = make([]int32, m)
	for i := range near {
		row := lb[i*k : (i+1)*k]
		near[i] = lowestNearest(row)
		for ci, d := range row {
			row[ci] = lowerBound(d)
		}
	}
	sums := make([]float64, k*stride)
	counts := make([]int, k)
	moves := make([]float64, k)
	for it := 0; it < cellLloydIters; it++ {
		if it > 0 {
			for i, s := range sample {
				near[i] = c.nearestBounded(vec(s), cents, near[i], lb[i*k:(i+1)*k])
			}
		}
		clear(sums)
		clear(counts)
		for i, s := range sample {
			row := sums[int(near[i])*stride : int(near[i]+1)*stride]
			for j, x := range vec(s) {
				row[j] += x
			}
			counts[near[i]]++
		}
		for ci := 0; ci < k; ci++ {
			moves[ci] = 0
			if counts[ci] == 0 {
				continue // keep the previous centroid; still deterministic
			}
			inv := 1 / float64(counts[ci])
			row := cents[ci*stride : (ci+1)*stride]
			srow := sums[ci*stride : (ci+1)*stride]
			for j := range srow {
				srow[j] *= inv
			}
			moves[ci] = features.PairDistance(cellRouteKind, row, srow) * (1 + cellBoundSlack)
			c.routeEvals++
			copy(row, srow)
		}
		for i := range near {
			row := lb[i*k : (i+1)*k]
			for ci, mv := range moves {
				row[ci] -= mv
			}
		}
	}
	return cents, near, lb
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
