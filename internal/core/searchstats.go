// Search work accounting: per-call SearchStats for the evaluation
// harness and benchmarks, plus the engine-wide atomic tally the stats
// surfaces (cbvrctl stats, the server's /api/v1/stats) report.
package core

import (
	"context"
	"sync/atomic"

	"cbvr/internal/features"
	"cbvr/internal/rangeindex"
)

// SearchStats counts the work one frame search performed across every
// shard. The pruning headline metrics derive from it: an exact sweep
// would have evaluated BaseRows × Kinds row kernels, the pruned pipeline
// paid RowEvals row kernels plus CellEvals centroid bounds.
type SearchStats struct {
	// Kinds is the number of requested descriptor kinds; K the requested
	// result bound.
	Kinds int `json:"kinds"`
	K     int `json:"k"`
	// BaseRows counts the candidate rows after §4.2 range pruning — the
	// rows an exact sweep scores. Candidates counts the rows this search
	// actually scored into the fusion phase.
	BaseRows   int64 `json:"base_rows"`
	Candidates int64 `json:"candidates"`
	// RowEvals counts per-kind row kernel evaluations; CellEvals counts
	// per-kind centroid lower-bound evaluations.
	RowEvals  int64 `json:"row_evals"`
	CellEvals int64 `json:"cell_evals"`
	// PrunedShards/ExactShards count non-empty shards by the path their
	// scan took.
	PrunedShards int `json:"pruned_shards"`
	ExactShards  int `json:"exact_shards"`
	// Stop names what ended a threshold traversal (StopThreshold or
	// StopSweep; see traverse.go), empty when the search took the
	// per-shard sweep or the min-max probe. Depth[kind] is the number of
	// rows the traversal released in each requested kind.
	Stop  string                 `json:"stop,omitempty"`
	Depth [features.NumKinds]int `json:"depth"`
}

// ExactEvals is the row-kernel count the exact sweep would have paid.
func (s SearchStats) ExactEvals() int64 { return s.BaseRows * int64(s.Kinds) }

// TotalEvals is the distance work the search actually paid: row kernels
// plus centroid bounds (a bound costs one pair kernel of its kind).
func (s SearchStats) TotalEvals() int64 { return s.RowEvals + s.CellEvals }

// EvalRatio is exact work over paid work (>= 1 means the pruner saved
// evaluations).
func (s SearchStats) EvalRatio() float64 {
	t := s.TotalEvals()
	if t == 0 {
		return 1
	}
	return float64(s.ExactEvals()) / float64(t)
}

// SearchWithSetStats is SearchWithSet with the work counters surfaced —
// the evaluation harness' entry point for recall-vs-work curves.
func (e *Engine) SearchWithSetStats(qset *features.Set, qbucket rangeindex.Range, opt SearchOptions) ([]Match, SearchStats, error) {
	return e.searchSetStats(context.Background(), qset, qbucket, opt)
}

// searchTally accumulates SearchStats across every search on the engine.
// Written with atomics after the scan (outside the engine lock), read by
// the stats surfaces at any time.
type searchTally struct {
	searches     atomic.Int64
	baseRows     atomic.Int64
	rowEvals     atomic.Int64
	cellEvals    atomic.Int64
	prunedShards atomic.Int64
	exactShards  atomic.Int64
}

func (t *searchTally) add(s *SearchStats) {
	t.searches.Add(1)
	t.baseRows.Add(s.BaseRows)
	t.rowEvals.Add(s.RowEvals)
	t.cellEvals.Add(s.CellEvals)
	t.prunedShards.Add(int64(s.PrunedShards))
	t.exactShards.Add(int64(s.ExactShards))
}

// SearchTallySnapshot is a point-in-time copy of the engine's cumulative
// search work counters.
type SearchTallySnapshot struct {
	Searches     int64 `json:"searches"`
	BaseRows     int64 `json:"base_rows"`
	RowEvals     int64 `json:"row_evals"`
	CellEvals    int64 `json:"cell_evals"`
	PrunedShards int64 `json:"pruned_shards"`
	ExactShards  int64 `json:"exact_shards"`
}

// SearchTally snapshots the cumulative per-engine search work counters.
func (e *Engine) SearchTally() SearchTallySnapshot {
	return SearchTallySnapshot{
		Searches:     e.tally.searches.Load(),
		BaseRows:     e.tally.baseRows.Load(),
		RowEvals:     e.tally.rowEvals.Load(),
		CellEvals:    e.tally.cellEvals.Load(),
		PrunedShards: e.tally.prunedShards.Load(),
		ExactShards:  e.tally.exactShards.Load(),
	}
}
