// Recall@K harness for the coarse-cell candidate pruner: loads a planted
// descriptor-space corpus (synthvid.StreamClusterCorpus) into an engine,
// runs each query twice through the SAME search pipeline — pruned and
// with NoCellPruning — and reports set-overlap recall of the pruned top-K
// against the exact top-K alongside the distance-evaluation work ratio.
// A configurable prefix of queries is additionally cross-checked against
// SearchWithSetReference, the retained naive full-sort baseline, so the
// "exact" side of the comparison is itself anchored to the reference
// implementation rather than trusted transitively.
package eval

import (
	"fmt"

	"cbvr/internal/core"
	"cbvr/internal/synthvid"
)

// loadBatch bounds peak memory while bulk-publishing: frames are handed
// to the engine in slices of this many, so corpus size never dictates
// resident slice size. The engine keeps no set once packed, so a batch's
// sets (~5 KB a frame) are the only ones alive, and their size adds to
// the peak. Loading 40 000 rows in-process on a 2-CPU x86-64 box peaked
// at ~530 MB RSS with 8192, ~480 MB with 2048 and ~435 MB with 1024 or
// 512, in equal time.
const loadBatch = 1024

// LoadClusterCorpus streams the configured corpus into the engine's
// search cache in bounded batches. The engine sees exactly the frames a
// store-backed ingest would have published (ID and video indexes, arenas,
// cell index). The reference search regenerates a frame's set from the
// corpus configuration (synthvid.ClusterCorpus.Set) instead of the engine
// keeping a copy.
func LoadClusterCorpus(e *core.Engine, cfg synthvid.ClusterCorpusConfig) error {
	regen := synthvid.NewClusterCorpus(cfg).Set // one func value for every entry
	batch := make([]core.SyntheticFrame, 0, loadBatch)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := e.PublishSyntheticFrames(batch, regen)
		clear(batch) // drop the published sets before the next batch
		batch = batch[:0]
		return err
	}
	err := synthvid.StreamClusterCorpus(cfg, func(f *synthvid.DescriptorFrame) error {
		batch = append(batch, core.SyntheticFrame{
			ID:         f.ID,
			VideoID:    f.VideoID,
			VideoName:  f.VideoName,
			FrameIndex: f.FrameIndex,
			Bucket:     f.Bucket,
			Set:        f.Set,
		})
		if len(batch) == loadBatch {
			return flush()
		}
		return nil
	})
	if err != nil {
		return err
	}
	return flush()
}

// RecallOptions configures one EvaluateRecall run.
type RecallOptions struct {
	// Queries is the number of near-duplicate queries (default 50); K the
	// result depth (default 10).
	Queries int
	K       int
	// Search is the base search configuration (kinds, fusion, weights).
	// K and NoCellPruning are overridden per arm.
	Search core.SearchOptions
	// ReferenceCheck cross-validates this many leading queries' exact arm
	// against SearchWithSetReference (default 3; negative disables). The
	// reference is single-goroutine full-sort, so keep this small on
	// large corpora.
	ReferenceCheck int
}

func (o RecallOptions) withDefaults() RecallOptions {
	if o.Queries <= 0 {
		o.Queries = 50
	}
	if o.K <= 0 {
		o.K = 10
	}
	if o.ReferenceCheck == 0 {
		o.ReferenceCheck = 3
	}
	return o
}

// RecallResult summarises one pruned-vs-exact evaluation run.
type RecallResult struct {
	Queries int `json:"queries"`
	K       int `json:"k"`
	// MeanRecall / MinRecall are set-overlap recall@K of the pruned arm
	// against the exact arm, averaged / minimised over queries.
	MeanRecall float64 `json:"mean_recall"`
	MinRecall  float64 `json:"min_recall"`
	// TargetHitRate is the fraction of queries whose planted ground-truth
	// exemplar appeared in the pruned top-K — retrieval quality in
	// absolute terms, independent of the exact arm.
	TargetHitRate float64 `json:"target_hit_rate"`
	// EvalRatio is aggregate exact work over aggregate paid work across
	// all pruned-arm searches (row kernels the exact sweep would run,
	// divided by row kernels plus centroid bounds the pruner ran).
	EvalRatio float64 `json:"eval_ratio"`
	// ExactEvals/PaidEvals are the aggregate numerator and denominator.
	ExactEvals int64 `json:"exact_evals"`
	PaidEvals  int64 `json:"paid_evals"`
	// PrunedShards/ExactShards aggregate the per-shard path taken across
	// all pruned-arm searches.
	PrunedShards int `json:"pruned_shards"`
	ExactShards  int `json:"exact_shards"`
}

// EvaluateRecall runs the configured queries through the pruned and exact
// arms and folds the comparison into a RecallResult. The engine must
// already hold the corpus (LoadClusterCorpus).
func EvaluateRecall(e *core.Engine, cfg synthvid.ClusterCorpusConfig, opt RecallOptions) (RecallResult, error) {
	opt = opt.withDefaults()
	queries := synthvid.ClusterQueries(cfg, opt.Queries)
	res := RecallResult{Queries: opt.Queries, K: opt.K, MinRecall: 1}

	var hits int
	var recallSum float64
	for qi, q := range queries {
		pruned := opt.Search
		pruned.K = opt.K
		pruned.NoCellPruning = false
		gotP, stats, err := e.SearchWithSetStats(q.Set, q.Bucket, pruned)
		if err != nil {
			return res, fmt.Errorf("eval: pruned search %d: %w", qi, err)
		}

		exact := pruned
		exact.NoCellPruning = true
		gotE, _, err := e.SearchWithSetStats(q.Set, q.Bucket, exact)
		if err != nil {
			return res, fmt.Errorf("eval: exact search %d: %w", qi, err)
		}

		if qi < opt.ReferenceCheck {
			ref, err := e.SearchWithSetReference(q.Set, q.Bucket, exact)
			if err != nil {
				return res, fmt.Errorf("eval: reference search %d: %w", qi, err)
			}
			if len(ref) != len(gotE) {
				return res, fmt.Errorf("eval: query %d: exact arm returned %d matches, reference %d", qi, len(gotE), len(ref))
			}
			for i := range ref {
				if ref[i].KeyFrameID != gotE[i].KeyFrameID {
					return res, fmt.Errorf("eval: query %d rank %d: exact arm ID %d != reference ID %d",
						qi, i, gotE[i].KeyFrameID, ref[i].KeyFrameID)
				}
			}
		}

		exactIDs := make(map[int64]bool, len(gotE))
		for _, m := range gotE {
			exactIDs[m.KeyFrameID] = true
		}
		overlap := 0
		targetHit := false
		for _, m := range gotP {
			if exactIDs[m.KeyFrameID] {
				overlap++
			}
			if m.KeyFrameID == q.NearDupOf {
				targetHit = true
			}
		}
		recall := 1.0
		if len(exactIDs) > 0 {
			recall = float64(overlap) / float64(len(exactIDs))
		}
		recallSum += recall
		if recall < res.MinRecall {
			res.MinRecall = recall
		}
		if targetHit {
			hits++
		}

		res.ExactEvals += stats.ExactEvals()
		res.PaidEvals += stats.TotalEvals()
		res.PrunedShards += stats.PrunedShards
		res.ExactShards += stats.ExactShards
	}
	res.MeanRecall = recallSum / float64(opt.Queries)
	res.TargetHitRate = float64(hits) / float64(opt.Queries)
	if res.PaidEvals > 0 {
		res.EvalRatio = float64(res.ExactEvals) / float64(res.PaidEvals)
	} else {
		res.EvalRatio = 1
	}
	return res, nil
}
