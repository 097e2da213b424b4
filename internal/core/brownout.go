// Search brownout: the engine's load-shedding level.
//
// Each search carries its own load level in SearchOptions.Brownout; the
// server copies it from the admission ticket (internal/admission), which
// folds live occupancy and recent p95 search latency into a value in
// [0,1]. The level has two effects. A min-max fused search's probe row
// budget (cells.go) shrinks linearly toward the minProbeRows floor, so it
// pays less; and unbounded K<=0 full rankings are refused outright with
// ErrOverloaded rather than allowed to scan the whole corpus while the
// system is drowning. Single-kind and RRF searches, the threshold
// traversal (traverse.go), stay exact at every level: same ranking, same
// work. The engine keeps no load state: two concurrent searches at
// different levels each run at their own.
//
// At level 0 the brownout is inert: no code path differs from an engine
// that has never heard of it.
package core

import (
	"errors"
	"math"
)

// ErrOverloaded is returned for unbounded (K <= 0) full-ranking searches
// whose brownout level is at or above BrownoutRefuseFullRank. HTTP layers
// map it to 503 with a computed Retry-After: the request is valid, the
// server just refuses the corpus-wide sweep until load clears.
var ErrOverloaded = errors.New("core: engine overloaded; full-ranking search refused until load clears")

// BrownoutRefuseFullRank is the level at or above which K<=0 searches are
// refused. Below it only the min-max probe shrinks.
const BrownoutRefuseFullRank = 0.5

// applyLoad clamps opt.Brownout to [0,1] and refuses an unbounded ranking
// at or above BrownoutRefuseFullRank: it sweeps the whole corpus (video
// DTW has no pruner at all), and no shrink can bound it. NaN counts as
// zero, so a corrupt load signal fails open instead of poisoning the
// budget arithmetic. The frame and clip searches call it once, after
// validate.
func (opt *SearchOptions) applyLoad() error {
	if math.IsNaN(opt.Brownout) {
		opt.Brownout = 0
	}
	opt.Brownout = min(max(opt.Brownout, 0), 1)
	if opt.K <= 0 && opt.Brownout >= BrownoutRefuseFullRank {
		return ErrOverloaded
	}
	return nil
}
