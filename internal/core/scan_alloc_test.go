//go:build !race

// The race detector makes sync.Pool drop a quarter of its Puts, so a
// pooled-scratch allocation count is only meaningful without it.

package core

import (
	"testing"

	"cbvr/internal/synthvid"
)

// TestScanShardExactZeroAlloc pins the range-pruned exact scan's
// steady-state cost: once the pooled scratch is warm, selecting a shard's
// bucket-filtered rows and sweeping them allocates nothing — the §4.2
// prune is an overlap test per row, not a materialised, sorted ID list.
func TestScanShardExactZeroAlloc(t *testing.T) {
	eng := openCellEngine(t, Options{SearchShards: 1})
	cfg := synthvid.ClusterCorpusConfig{Frames: 4000, Clusters: 12, Seed: 17}
	loadClusterFrames(t, eng, cfg)
	q := synthvid.ClusterQueries(cfg, 2)[1] // cluster 1's half-range bucket: a real prune
	opt := SearchOptions{K: 10, NoCellPruning: true}
	pq := packQuery(q.Set, opt.kinds())

	eng.mu.RLock()
	defer eng.mu.RUnlock()
	scan := func() scanStats {
		part := eng.scanShard(0, pq, q.Bucket, &opt, false)
		part.scratch.release()
		return part.stats
	}
	st := scan()
	if live := len(eng.arenas[0].live); st.baseRows < 2000 || st.baseRows >= live || st.pruned {
		t.Fatalf("scan stats %+v over %d live rows: want an exact sweep of >= 2000 range-pruned rows", st, live)
	}
	if allocs := testing.AllocsPerRun(20, func() { scan() }); allocs != 0 {
		t.Fatalf("range-pruned exact shard scan allocates %v times per run, want 0", allocs)
	}
}
