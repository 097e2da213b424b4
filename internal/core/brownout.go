// Search brownout: the engine's graceful-quality-degradation knob.
//
// Each search carries its own load level in SearchOptions.Brownout; the
// server copies it from the admission ticket (internal/admission), which
// folds live occupancy and recent p95 search latency into a value in
// [0,1]. Under pressure the fused cell-probe budget (cells.go) shrinks
// linearly toward its recall floor MinProbeRows — trading recall the eval
// harness has already priced (internal/eval) for latency — and unbounded
// K<=0 full rankings are refused outright with ErrOverloaded rather than
// allowed to scan the whole corpus while the system is drowning. The
// engine keeps no load state: two concurrent searches at different levels
// each run at their own.
//
// The contract that keeps the equivalence tests honest: at level 0
// the brownout is completely inert — no code path differs from an engine
// that has never heard of it, so searches stay bit-identical to
// SearchWithSetReference wherever they were before. Single-kind searches
// are never browned out: their bound-ordered sweep is exact AND sub-linear
// already, so there is no latency to buy back with recall.
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
// refused. Below it the budget shrink alone carries the pressure.
const BrownoutRefuseFullRank = 0.5

// applyLoad clamps opt.Brownout to [0,1] and refuses an unbounded ranking
// at or above BrownoutRefuseFullRank: a full ranking with a shrunken probe
// budget would be a silent lie about what it ranked, and video DTW has no
// pruner to shrink. NaN counts as zero, so a corrupt load signal fails
// open (exact) instead of poisoning the budget arithmetic. The frame and
// clip searches call it once, after validate.
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

// brownedBudget shrinks a fused probe budget toward the floor
// (MinProbeRows): level 0 returns budget unchanged, level 1 returns the
// floor, linear in between. The floor is the recall-gated minimum the
// eval harness pins — brownout never probes below it.
func brownedBudget(budget, floor int, level float64) int {
	if level <= 0 || budget <= floor {
		return budget
	}
	return floor + int((1-level)*float64(budget-floor))
}
