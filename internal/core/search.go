// Query-side pipeline: the search entry points, the per-shard sweep, and
// the retained single-goroutine reference implementation the
// equivalence tests and benchmarks compare against.
//
// A frame search takes one of two paths:
//
//   - the threshold traversal (traverse.go) for every bounded single-kind
//     or RRF search once a shard has usable cells: exact, on the calling
//     goroutine;
//   - otherwise two parallel phases over the engine's fixed cache shards.
//     Scan: each shard worker selects its arena rows (the §4.2 bucket
//     filter, and for min-max fusion a cell probe), sweeps all requested
//     per-feature distances into one flat shard-local buffer, and for
//     min-max folds each feature's running min/max into a shard-local
//     MinMaxScaler. Select: per-candidate fused distances go through one
//     bounded top-K max-heap per shard, and the heaps merge into the
//     final ranking.
//
// Fused RRF ranks by the raw score, ties by key-frame ID, and reports the
// fixed-scale similarity.RRFDistance on every path, the reference's
// included. No phase fully sorts the candidate set.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"cbvr/internal/features"
	"cbvr/internal/imaging"
	"cbvr/internal/rangeindex"
	"cbvr/internal/similarity"
)

// missingDistance ranks candidates with an absent stored descriptor last.
const missingDistance = 1e9

// searchWorkers resolves the per-call scoring parallelism: the call
// override, else GOMAXPROCS, clamped to the shard count (more workers
// than shards cannot help).
func (e *Engine) searchWorkers(opt *SearchOptions) int {
	w := opt.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(e.arenas) {
		w = len(e.arenas)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// parallelFor runs fn(i) for i in [0,n) across at most workers
// goroutines, pulling indices from a shared counter so uneven work
// self-balances. workers <= 1 runs inline on the calling goroutine.
func parallelFor(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// SearchFrame ranks stored key frames against a query frame: extract the
// query's descriptors, prune candidates by §4.2 range bucket, score per
// feature in parallel, fuse and select the top K.
func (e *Engine) SearchFrame(query *imaging.Image, opt SearchOptions) ([]Match, error) {
	return e.SearchFrameCtx(context.Background(), query, opt)
}

// SearchFrameCtx is SearchFrame under a request context: cancellation is
// checked before query extraction, then by the threshold traversal before
// each cell step and by the per-shard sweep between shard scans, so an
// abandoned request stops scoring within one cell's or one shard's worth
// of work and returns the context's error instead of a partial ranking.
// The one unchecked stretch is the traversal's fallback sweep once its
// work passes the exact sweep's cost (sweepRest), and that pays fewer row
// evaluations than the query's cell bounds already did.
func (e *Engine) SearchFrameCtx(ctx context.Context, query *imaging.Image, opt SearchOptions) ([]Match, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := e.warmCache(); err != nil {
		return nil, err
	}
	qset, qbucket := Describe(query.Source(), nil)
	return e.searchSet(ctx, qset, qbucket, opt)
}

// SearchWithSet runs the frame search with pre-extracted query descriptors
// (evaluation harness; avoids re-extracting per feature configuration).
func (e *Engine) SearchWithSet(qset *features.Set, qbucket rangeindex.Range, opt SearchOptions) ([]Match, error) {
	return e.searchSet(context.Background(), qset, qbucket, opt)
}

// scored pairs one candidate with its per-kind raw distances; the row
// aliases the owning shard's pooled scan scratch.
type scored struct {
	en *frameEntry
	d  []float64
}

// shardPart is one shard worker's scan output. scratch owns the memory
// cands and their distance rows alias; searchSet releases it once the
// final ranking has been materialised.
type shardPart struct {
	cands   []scored
	scalers []similarity.MinMaxScaler // per kind; nil unless min-max fusion
	scratch *scanScratch
	stats   scanStats
}

// newMinMaxScalers returns one empty scaler per kind.
func newMinMaxScalers(nk int) []similarity.MinMaxScaler {
	scalers := make([]similarity.MinMaxScaler, nk)
	for ki := range scalers {
		scalers[ki] = similarity.NewMinMaxScaler()
	}
	return scalers
}

// scanStats counts one shard scan's work for the search-wide SearchStats.
type scanStats struct {
	baseRows  int   // candidate rows an exact sweep would score
	rowEvals  int64 // per-kind row kernel evaluations performed
	cellEvals int64 // per-kind centroid bound evaluations performed
	pruned    bool  // a cell-pruned path ran (vs the exact sweep)
}

// searchSet is the scoring half of SearchFrame: the concurrent sharded
// pipeline. It is deterministic — identical rankings and distances at any
// worker count, matching searchSetReference.
func (e *Engine) searchSet(ctx context.Context, qset *features.Set, qbucket rangeindex.Range, opt SearchOptions) ([]Match, error) {
	out, _, err := e.searchSetStats(ctx, qset, qbucket, opt)
	return out, err
}

// searchSetStats is searchSet with the per-search work counters surfaced
// (and folded into the engine-wide tally either way).
func (e *Engine) searchSetStats(ctx context.Context, qset *features.Set, qbucket rangeindex.Range, opt SearchOptions) ([]Match, SearchStats, error) {
	if err := opt.validate(); err != nil {
		return nil, SearchStats{}, err
	}
	if err := e.warmCache(); err != nil {
		return nil, SearchStats{}, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()

	kinds := opt.kinds()
	for _, kind := range kinds {
		if qset.Get(kind) == nil {
			return nil, SearchStats{}, fmt.Errorf("core: query lacks %v descriptor", kind)
		}
	}
	pq := packQuery(qset, kinds)

	stats := SearchStats{Kinds: len(kinds), K: opt.K}
	if t := e.planTraversal(&opt, pq, qbucket, &stats); t != nil {
		defer t.release()
		ranked, stop, err := t.run(ctx)
		if err != nil {
			return nil, SearchStats{}, err
		}
		stats.Candidates = int64(len(t.rows))
		stats.RowEvals, stats.CellEvals = t.rowEvals, t.cellEvals
		stats.Stop = stop
		for ki, kind := range kinds {
			stats.Depth[kind] = t.kinds[ki].depth
		}
		e.tally.add(&stats)
		return e.matches(ranked), stats, nil
	}

	nShards := len(e.arenas)
	workers := e.searchWorkers(&opt)
	needScalers := len(kinds) > 1 && opt.Fusion == FusionMinMax

	// Phase 1: shard-local scan — select rows, kernel-sweep the arena
	// columns, observe min/max. The pooled scratch each shard scores into stays
	// aliased by the candidate rows until the ranking is final.
	parts := make([]shardPart, nShards)
	defer func() {
		for si := range parts {
			if parts[si].scratch != nil {
				parts[si].scratch.release()
			}
		}
	}()
	// Cancellation is checked per shard: an abandoned request skips the
	// remaining shard scans and returns the context's error, never a
	// partial ranking.
	var cancelled atomic.Bool
	parallelFor(nShards, workers, func(si int) {
		if cancelled.Load() {
			return
		}
		if ctx.Err() != nil {
			cancelled.Store(true)
			return
		}
		parts[si] = e.scanShard(si, pq, qbucket, &opt, needScalers)
	})
	if err := ctx.Err(); err != nil {
		return nil, SearchStats{}, err
	}

	// Fold the per-shard work counters into the search-wide stats and the
	// engine tally.
	for si := range parts {
		st := &parts[si].stats
		stats.BaseRows += int64(st.baseRows)
		stats.Candidates += int64(len(parts[si].cands))
		stats.RowEvals += st.rowEvals
		stats.CellEvals += st.cellEvals
		if st.pruned {
			stats.PrunedShards++
		} else if st.baseRows > 0 {
			stats.ExactShards++
		}
	}
	e.tally.add(&stats)

	// Flatten to one candidate view, remembering each shard's range so
	// selection can stay shard-parallel.
	total := 0
	for si := range parts {
		total += len(parts[si].cands)
	}
	if total == 0 {
		return nil, stats, nil
	}
	all := make([]scored, 0, total)
	bounds := make([][2]int, nShards)
	for si := range parts {
		start := len(all)
		all = append(all, parts[si].cands...)
		bounds[si] = [2]int{start, len(all)}
	}

	k := opt.K
	if k <= 0 || k > total {
		k = total
	}

	// Fused distance per candidate. Single feature: the raw distance.
	// Min-max: streamed normalisation via the joined shard scalers.
	// RRF: the negated score from global per-feature ranks (computed
	// below), mapped to its fixed-scale distance once selected.
	var fusedAt func(g int) float64
	switch {
	case len(kinds) == 1:
		fusedAt = func(g int) float64 { return all[g].d[0] }
	case opt.Fusion == FusionMinMax:
		scalers := newMinMaxScalers(len(kinds))
		for si := range parts {
			if parts[si].scalers == nil {
				continue
			}
			for ki := range scalers {
				scalers[ki].Join(parts[si].scalers[ki])
			}
		}
		ws := similarity.FusionWeights(opt.Weights, len(kinds))
		fusedAt = func(g int) float64 {
			var sum float64
			for ki, dv := range all[g].d {
				sum += ws[ki] * scalers[ki].Scale(dv)
			}
			return sum
		}
	default:
		rs := rrfScratchPool.Get().(*rrfScratch)
		defer rrfScratchPool.Put(rs)
		fused := rrfScores(all, len(kinds), workers, rs)
		fusedAt = func(g int) float64 { return fused[g] }
	}

	// Phase 2: bounded top-K selection, one heap per shard, then merge.
	heaps := make([]*similarity.TopK, nShards)
	parallelFor(nShards, workers, func(si int) {
		lo, hi := bounds[si][0], bounds[si][1]
		if lo == hi {
			return
		}
		h := similarity.NewTopK(k)
		for g := lo; g < hi; g++ {
			h.Push(similarity.Ranked{ID: all[g].en.id, Distance: fusedAt(g)})
		}
		heaps[si] = h
	})
	final := similarity.NewTopK(k)
	for _, h := range heaps {
		final.Merge(h)
	}

	ranked := final.Sorted()
	if len(kinds) > 1 && opt.Fusion == FusionRRF {
		rrfDistances(ranked, len(kinds))
	}
	return e.matches(ranked), stats, nil
}

// rrfDistances replaces each ranked negated RRF score over nk kinds with
// its fixed-scale distance (similarity.RRFDistance).
func rrfDistances(ranked []similarity.Ranked, nk int) {
	for i := range ranked {
		ranked[i].Distance = similarity.RRFDistance(ranked[i].Distance, nk)
	}
}

// matches resolves a ranking's key frames to Matches. Callers hold e.mu
// for reading.
func (e *Engine) matches(ranked []similarity.Ranked) []Match {
	out := make([]Match, len(ranked))
	for i, r := range ranked {
		en := e.byID[r.ID]
		out[i] = Match{
			KeyFrameID: en.id,
			VideoID:    en.videoID,
			VideoName:  e.videos[en.videoID].name,
			FrameIndex: en.frameIdx,
			Distance:   r.Distance,
		}
	}
	return out
}

// scanShard scores one cache shard's candidates against the packed query
// for the per-shard path: one row-selection step, one kernel sweep. n0 —
// the live rows surviving the §4.2 range prune, or every live row under
// NoPruning — is what an exact sweep would score. The rows come from one
// of two sources:
//
//   - every live row (NoPruning) or the bucket-filtered live rows
//     (default): bit-identical to the reference. Every single-kind and
//     RRF search that reaches this path takes it.
//   - for min-max fusion, when the shard's cells can bound the request
//     (see shardCells.plan), the cells in RRF-centroid-rank order up to
//     the probe budget: approximate, held to a recall floor by the eval
//     harness.
//
// Cell members pass the same bucket filter unless NoPruning. Callers must
// hold e.mu for reading; the returned part's scratch must be released once
// its rows are no longer referenced.
func (e *Engine) scanShard(si int, pq *PackedQuery, qbucket rangeindex.Range, opt *SearchOptions, needScalers bool) shardPart {
	ar, cl := e.arenas[si], e.cells[si]
	nk := len(pq.kinds)
	n0 := len(ar.live)
	if !opt.NoPruning {
		n0 = ar.countOverlapping(qbucket)
	}
	if n0 == 0 {
		return shardPart{}
	}
	sc := scanScratchPool.Get().(*scanScratch)
	sc.grow(n0, nk)
	part := shardPart{scratch: sc, stats: scanStats{baseRows: n0}}
	if needScalers {
		part.scalers = newMinMaxScalers(nk)
	}
	take := func(slots []int32) {
		if opt.NoPruning {
			sc.rows = append(sc.rows, slots...)
		} else {
			sc.rows = ar.overlapping(sc.rows, slots, qbucket)
		}
	}

	budget, viaCells := 0, false
	if needScalers {
		budget, viaCells = cl.plan(opt, n0)
	}
	if viaCells {
		part.stats.cellEvals = cl.visitOrder(pq, sc)
		for _, ci := range sc.cellOrd {
			if len(sc.rows) >= budget {
				break
			}
			take(cl.members[ci])
		}
		// Truncating the last cell at the exact budget keeps paid work
		// equal to the budget instead of overshooting by up to a cell; the
		// probe is approximate either way, and members are ID-ordered.
		sc.rows = sc.rows[:min(len(sc.rows), budget)]
	} else {
		take(ar.live)
	}
	sc.sweep(ar, pq, 0, part.scalers)

	n := len(sc.rows)
	part.cands = sc.cands[:n]
	for i, s := range sc.rows {
		part.cands[i] = scored{en: ar.ents[s], d: sc.buf[i*nk : (i+1)*nk : (i+1)*nk]}
	}
	part.stats.rowEvals = int64(n) * int64(nk)
	part.stats.pruned = viaCells
	return part
}

// rrfScores reproduces similarity.RRF over the flattened candidate set:
// the exact sweep's fusion. Per kind, candidates are ranked by (distance, key-frame
// ID) — the same order the reference's stable sort yields over its
// ID-sorted candidate list — and each contributes -1/(C+rank). The
// candidates are put in ID order once; each kind's ranking is then a
// stable radix sort of that order by distance (radixSorter), so equal
// distances keep ID order without a comparator. The per-kind sorts run in
// parallel; accumulation stays in kind order so the floating-point sum
// matches the reference bit for bit. The returned scores alias rs.
func rrfScores(all []scored, nk, workers int, rs *rrfScratch) []float64 {
	n := len(all)
	rs.grow(n, nk)
	srt := radixPool.Get().(*radixSorter)
	srt.grow(n)
	for i := range all {
		srt.keys[i] = uint64(all[i].en.id) ^ 1<<63 // int64 order as uint64 order
		srt.idx[i] = int32(i)
	}
	copy(rs.byID, srt.sort())
	radixPool.Put(srt)
	parallelFor(nk, workers, func(ki int) {
		srt := radixPool.Get().(*radixSorter)
		srt.grow(n)
		for i, g := range rs.byID {
			srt.keys[i] = distanceKey(all[g].d[ki])
			srt.idx[i] = g
		}
		copy(rs.order[ki*n:(ki+1)*n], srt.sort())
		radixPool.Put(srt)
	})
	score := rs.score
	clear(score)
	for ki := 0; ki < nk; ki++ {
		for rank, g := range rs.order[ki*n : (ki+1)*n] {
			score[g] -= 1 / (float64(similarity.RRFConstant) + float64(rank+1))
		}
	}
	return score
}

// rrfScratch is one fused ranking's reusable memory: the candidates in
// key-frame ID order, each kind's rank order (kind-major, n per kind) and
// the fused scores. Pooled so a steady stream of fused searches allocates
// none of it per query.
type rrfScratch struct {
	byID  []int32
	order []int32
	score []float64
}

var rrfScratchPool = sync.Pool{New: func() any { return new(rrfScratch) }}

// grow readies the scratch for n candidates × nk kinds.
func (s *rrfScratch) grow(n, nk int) {
	if cap(s.byID) < n {
		s.byID = make([]int32, n)
		s.score = make([]float64, n)
	}
	if cap(s.order) < n*nk {
		s.order = make([]int32, n*nk)
	}
	s.byID = s.byID[:n]
	s.score = s.score[:n]
	s.order = s.order[:n*nk]
}

// radixSorter is a stable LSD radix sort of indices by uint64 keys, with
// its ping-pong buffers. Pooled: each of a fused ranking's parallel
// per-kind sorts borrows one.
type radixSorter struct {
	keys, keys2 []uint64
	idx, idx2   []int32
}

var radixPool = sync.Pool{New: func() any { return new(radixSorter) }}

// grow readies the sorter for n keys; the caller fills keys and idx.
func (s *radixSorter) grow(n int) {
	if cap(s.keys) < n {
		s.keys, s.keys2 = make([]uint64, n), make([]uint64, n)
		s.idx, s.idx2 = make([]int32, n), make([]int32, n)
	}
	s.keys, s.keys2 = s.keys[:n], s.keys2[:n]
	s.idx, s.idx2 = s.idx[:n], s.idx2[:n]
}

// sort orders idx stably by keys, one counting pass per 8-bit digit from
// the lowest, and returns the sorted indices (one of the sorter's
// buffers). The digit histograms are counted in one read up front; a
// digit every key shares leaves the order as it is, so its pass is
// skipped.
//
//cbvrvet:noalloc
func (s *radixSorter) sort() []int32 {
	keys, idx, keys2, idx2 := s.keys, s.idx, s.keys2, s.idx2
	n := len(keys)
	if n == 0 {
		return idx
	}
	var count [8][256]int32
	for _, k := range keys {
		for d := range count {
			count[d][byte(k>>(8*d))]++
		}
	}
	for d := range count {
		c := &count[d]
		shift := 8 * d
		if c[byte(keys[0]>>shift)] == int32(n) {
			continue
		}
		var sum int32
		for b, v := range c {
			c[b] = sum
			sum += v
		}
		for i, k := range keys {
			b := byte(k >> shift)
			keys2[c[b]] = k
			idx2[c[b]] = idx[i]
			c[b]++
		}
		keys, keys2 = keys2, keys
		idx, idx2 = idx2, idx
	}
	return idx
}

// distanceKey maps a distance to a uint64 whose unsigned order is the
// distances' < order: -0 folds into +0 (they compare equal), a negative
// value has every bit flipped and any other gains the sign bit.
func distanceKey(d float64) uint64 {
	if d == 0 {
		return 1 << 63
	}
	b := math.Float64bits(d)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// searchSetReference is the retained naive implementation: a single
// goroutine scans every cached entry, materialises one full distance list
// per feature, fuses with the batch similarity helpers and fully sorts
// the ranking. It compares descriptor sets (referenceSet: a stored row's
// are parsed from its KEY_FRAMES text, a cache-only frame's regenerated),
// never the packed arena rows the sharded pipeline sweeps. It builds one
// candidate's set at a time and scores every kind from it before the
// next, so it never holds the corpus's sets at once. The sharded pipeline
// must reproduce its output exactly; it exists for equivalence tests and
// as the benchmark baseline.
func (e *Engine) searchSetReference(qset *features.Set, qbucket rangeindex.Range, opt SearchOptions) ([]Match, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if err := e.warmCache(); err != nil {
		return nil, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()

	// Validate query descriptors before scanning, in the same order the
	// sharded pipeline does, so the two implementations agree even on the
	// missing-descriptor + zero-candidate edge.
	kinds := opt.kinds()
	for _, kind := range kinds {
		if qset.Get(kind) == nil {
			return nil, fmt.Errorf("core: query lacks %v descriptor", kind)
		}
	}

	var cands []*frameEntry
	for _, en := range e.byID {
		if opt.NoPruning || en.bucket.Overlaps(qbucket) {
			cands = append(cands, en)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].id < cands[j].id })
	if len(cands) == 0 {
		return nil, nil
	}

	lists := make([][]float64, len(kinds))
	for ki := range lists {
		lists[ki] = make([]float64, len(cands))
	}
	for i, en := range cands {
		set, err := e.referenceSet(en)
		if err != nil {
			return nil, err
		}
		for ki, kind := range kinds {
			cd := set.Get(kind)
			if cd == nil {
				lists[ki][i] = missingDistance
				continue
			}
			d, err := qset.Get(kind).DistanceTo(cd)
			if err != nil {
				return nil, err
			}
			lists[ki][i] = d
		}
	}
	var fused []float64
	if len(kinds) == 1 {
		fused = lists[0]
	} else if opt.Fusion == FusionMinMax {
		for _, l := range lists {
			similarity.Normalize(l)
		}
		fused = similarity.Fuse(lists, opt.Weights)
	} else {
		fused = similarity.RRF(lists, similarity.RRFConstant)
	}

	ids := make([]int64, len(cands))
	for i, en := range cands {
		ids[i] = en.id
	}
	ranked := similarity.Rank(ids, fused)
	k := opt.K
	if k <= 0 || k > len(ranked) {
		k = len(ranked)
	}
	ranked = ranked[:k]
	if len(kinds) > 1 && opt.Fusion == FusionRRF {
		rrfDistances(ranked, len(kinds))
	}
	return e.matches(ranked), nil
}

// SearchWithSetReference runs the retained naive full-sort search (single
// goroutine, no heap selection). Exported for equivalence tests and as
// the speedup baseline in benchmarks.
func (e *Engine) SearchWithSetReference(qset *features.Set, qbucket rangeindex.Range, opt SearchOptions) ([]Match, error) {
	return e.searchSetReference(qset, qbucket, opt)
}

// SearchVideoCtx ranks stored videos against a query clip using the
// paper's dynamic-programming sequence similarity: the query's key-frame
// descriptor sequence is aligned (DTW) against each stored video's
// key-frame sequence, with per-pair cost the equally weighted sum of
// fixed-scale feature distances.
//
// Cancellation is checked before each query frame is read and between
// per-video DTW alignments, so an abandoned clip query stops within one
// frame's or one alignment's worth of work and returns the context's error
// instead of a partial ranking.
//
// The clip runs through the key-frame pipeline exactly as an uploaded
// video does (pipeline.go): §4.1 selection samples each frame's signature
// in place, each key frame is rescaled once into a pooled analysis
// raster and described in the extraction pool with its selection
// signature reused.
func (e *Engine) SearchVideoCtx(ctx context.Context, queryFrames []*imaging.Image, opt SearchOptions) ([]VideoMatch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := e.warmCache(); err != nil {
		return nil, err
	}
	jobs, err := e.selectKeyFrames(&frameSource{ctx: ctx, frames: queryFrames})
	if err != nil {
		return nil, err
	}
	if len(jobs) == 0 {
		return nil, errors.New("core: query clip has no frames")
	}
	qsets := make([]*features.Set, len(jobs))
	for i, j := range jobs {
		qsets[i] = j.set
	}
	return e.searchVideoSets(ctx, qsets, opt)
}

// searchVideoSets ranks stored videos by DTW alignment of pre-extracted
// query descriptor sequences against each video's cached key frames.
func (e *Engine) searchVideoSets(ctx context.Context, qsets []*features.Set, opt SearchOptions) ([]VideoMatch, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	return e.rankVideos(ctx, qsets, opt, similarity.DTW)
}

// BestSingleFrameVideoSearch ranks videos by the single best frame-to-
// frame distance instead of DP alignment (the DP ablation baseline).
func (e *Engine) BestSingleFrameVideoSearch(qsets []*features.Set, opt SearchOptions) ([]VideoMatch, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if err := e.warmCache(); err != nil {
		return nil, err
	}
	return e.rankVideos(context.Background(), qsets, opt, minPairCost)
}

// minPairCost reduces a query-by-frame cost matrix to its smallest entry.
func minPairCost(nq, nf int, cost func(qi, fj int) float64) float64 {
	best := math.Inf(1)
	for fj := 0; fj < nf; fj++ {
		for qi := 0; qi < nq; qi++ {
			if d := cost(qi, fj); d < best {
				best = d
			}
		}
	}
	return best
}

// rankVideos scores every cached video against the query sequence, one
// video per worker at a time, and heap-selects the K closest (all when
// K <= 0) with the deterministic (distance, video ID) tie-break. reduce
// folds a video's query-by-frame cost matrix into its distance; the cost
// reads the stored side straight out of the arena columns through the
// batch kernels' pair form. A video no query frame reaches (+Inf) is not
// ranked. Cancellation is checked before each video; on cancellation the
// context's error is returned, never a partial ranking.
func (e *Engine) rankVideos(ctx context.Context, qsets []*features.Set, opt SearchOptions, reduce func(nq, nf int, cost func(qi, fj int) float64) float64) ([]VideoMatch, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	kinds := opt.kinds()
	pqs := make([]*PackedQuery, len(qsets))
	for i, q := range qsets {
		pqs[i] = packQuery(q, kinds)
	}
	videos := make([]*videoEntry, 0, len(e.videos))
	for _, v := range e.videos {
		if len(v.frames) > 0 {
			videos = append(videos, v)
		}
	}

	dists := make([]float64, len(videos))
	// Fan out over videos, not shards, so the parallelism bound is the
	// video count (parallelFor clamps), not the engine's shard count.
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var cancelled atomic.Bool
	parallelFor(len(videos), workers, func(i int) {
		if cancelled.Load() {
			return
		}
		if ctx.Err() != nil {
			cancelled.Store(true)
			return
		}
		frames := videos[i].frames
		dists[i] = reduce(len(pqs), len(frames), func(qi, fj int) float64 {
			en := frames[fj]
			return fixedScaleDistancePacked(pqs[qi], e.arenas[e.shardFor(en.id)], en.slot)
		})
	})
	if cancelled.Load() {
		return nil, ctx.Err()
	}

	h := similarity.NewTopK(opt.K)
	for i, v := range videos {
		if !math.IsInf(dists[i], 1) {
			h.Push(similarity.Ranked{ID: v.id, Distance: dists[i]})
		}
	}
	ranked := h.Sorted()
	out := make([]VideoMatch, len(ranked))
	for i, r := range ranked {
		out[i] = VideoMatch{VideoID: r.ID, VideoName: e.videos[r.ID].name, Distance: r.Distance}
	}
	return out, nil
}
