// Query-side packing and scratch for the batched arena scan, plus the
// exported surface BenchmarkScanArena drives: the raw kernel sweep
// (ScanArenaInto).
package core

import (
	"fmt"
	"sync"

	"cbvr/internal/features"
	"cbvr/internal/similarity"
)

// PackedQuery carries one query descriptor set's kernel vectors, packed
// once per search (one backing array, one subslice per requested kind).
// vec[i] is nil when the set lacks kinds[i] — searchSet rejects that for
// frame searches, while the fixed-scale video paths skip the kind.
type PackedQuery struct {
	kinds []features.Kind
	vec   [][]float64
}

// packQuery packs the requested kinds of a query set for the kernels.
func packQuery(qset *features.Set, kinds []features.Kind) *PackedQuery {
	total := 0
	for _, kind := range kinds {
		total += features.Stride(kind)
	}
	buf := make([]float64, 0, total)
	pq := &PackedQuery{kinds: kinds, vec: make([][]float64, len(kinds))}
	for i, kind := range kinds {
		d := qset.Get(kind)
		if d == nil {
			continue
		}
		start := len(buf)
		buf = d.AppendTo(buf)
		pq.vec[i] = buf[start:len(buf):len(buf)]
	}
	return pq
}

// PackQuery packs a query descriptor set for the batched kernels (nil
// kinds means all seven). Exported for the scan-phase benchmarks, which
// pack once outside the timed loop; searches pack internally.
func (e *Engine) PackQuery(qset *features.Set, kinds []features.Kind) *PackedQuery {
	if len(kinds) == 0 {
		kinds = features.AllKinds()
	}
	return packQuery(qset, kinds)
}

// scanScratch is one shard worker's reusable scan memory: the selected
// arena rows, the kernel output column and the per-candidate distance
// rows. Pooled so steady-state searches allocate nothing per shard;
// released by searchSet once the ranking no longer aliases buf.
type scanScratch struct {
	rows  []int32
	buf   []float64 // candidate-major distance rows, len n*nk
	col   []float64 // kind-major kernel output, len n
	cands []scored

	// Cell-pruning scratch (see cells.go), sized by growCells: the per-cell
	// visit keys and the key-sorted visit order, plus one kind's centroid
	// distances and their rank order for the fused probe.
	cellKey  []float64
	cellOrd  []int32
	cellDist []float64
	cellRank []int32
}

var scanScratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

// grow readies the scratch for n candidates × nk kinds, reusing backing
// arrays across queries. buf and col grow independently: a pooled
// scratch can see any (n, nk) sequence (per-call Kinds subsets, shards
// of different sizes), so one capacity must never be inferred from the
// other.
func (s *scanScratch) grow(n, nk int) {
	if cap(s.cands) < n {
		s.cands = make([]scored, n)
	}
	if cap(s.rows) < n {
		s.rows = make([]int32, 0, n)
	}
	s.rows = s.rows[:0]
	s.cands = s.cands[:cap(s.cands)][:n]
	if cap(s.buf) < n*nk {
		s.buf = make([]float64, n*nk)
	}
	if cap(s.col) < n {
		s.col = make([]float64, n)
	}
	s.buf = s.buf[:n*nk]
	s.col = s.col[:n]
}

// growCells readies the per-cell scratch for nc cells.
func (s *scanScratch) growCells(nc int) {
	if cap(s.cellKey) < nc {
		s.cellKey = make([]float64, nc)
		s.cellOrd = make([]int32, nc)
		s.cellDist = make([]float64, nc)
		s.cellRank = make([]int32, nc)
	}
	s.cellKey = s.cellKey[:nc]
	s.cellOrd = s.cellOrd[:nc]
	s.cellDist = s.cellDist[:nc]
	s.cellRank = s.cellRank[:nc]
}

// sweep scores rows[start:] against the packed query: each kind's batched
// kernel runs over those rows of the shard's contiguous columns — no
// interface dispatch, no per-candidate allocation — into col, which is
// transposed into the candidate-major distance rows the fusion phase
// reads. scalers, when non-nil, observe every distance per kind.
func (s *scanScratch) sweep(ar *shardArena, pq *PackedQuery, start int, scalers []similarity.MinMaxScaler) {
	rows := s.rows[start:]
	nk := len(pq.kinds)
	col := s.col[:len(rows)]
	for ki, kind := range pq.kinds {
		ar.distances(kind, pq.vec[ki], rows, col)
		if scalers != nil {
			for _, dv := range col {
				scalers[ki].Observe(dv)
			}
		}
		for i, dv := range col {
			s.buf[(start+i)*nk+ki] = dv
		}
	}
}

// release drops entry references over the full backing array (so
// pooled scratch cannot keep deleted videos' descriptors alive past any
// query) and returns the scratch to the pool.
func (s *scanScratch) release() {
	cands := s.cands[:cap(s.cands)]
	for i := range cands {
		cands[i] = scored{}
	}
	scanScratchPool.Put(s)
}

// ScanArenaInto is the scan phase in isolation: the batched kernel sweep
// of every live arena row in every shard for the query's kinds, written
// into dist (per shard, per kind, contiguous candidate runs). It returns
// the number of candidate×kind distances produced and performs zero
// allocations — BenchmarkScanArena measures exactly this loop. dist must
// hold len(kinds) × CacheSize values.
//
//cbvrvet:noalloc
func (e *Engine) ScanArenaInto(pq *PackedQuery, dist []float64) (int, error) {
	if err := e.warmCache(); err != nil {
		return 0, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	c := 0
	for si := range e.arenas {
		ar := e.arenas[si]
		rows := ar.live
		if len(rows) == 0 {
			continue
		}
		for ki, kind := range pq.kinds {
			qv := pq.vec[ki]
			if qv == nil {
				return 0, fmt.Errorf("core: query lacks %v descriptor", kind)
			}
			if c+len(rows) > len(dist) {
				return 0, fmt.Errorf("core: dist buffer holds %d values, need more", len(dist))
			}
			ar.distances(kind, qv, rows, dist[c:c+len(rows)])
			c += len(rows)
		}
	}
	return c, nil
}
