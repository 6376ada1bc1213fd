package solver

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/localsearch"
	"repro/internal/matroid"
	"repro/internal/model"
	"repro/internal/poibin"
	"repro/internal/revenue"
)

// Canonical registry names. The paper's figure-legend spellings (GG,
// GG-No, SLG, RLG, TopRev, TopRat) are registered as aliases so
// pre-registry CLI flags and configs keep resolving.
const (
	NameGGreedy          = "g-greedy"           // Global Greedy (Algorithm 1)
	NameGGreedyNo        = "g-greedy-no"        // G-Greedy ignoring saturation (GG-No, §6.1)
	NameGGreedyStaged    = "g-greedy-staged"    // G-Greedy under gradual price reveal (§6.3)
	NameSLGreedy         = "sl-greedy"          // Sequential Local Greedy (Algorithm 2)
	NameRLGreedy         = "rl-greedy"          // Randomized Local Greedy (§5.2)
	NameRLGreedyParallel = "rl-greedy-parallel" // RL-Greedy with concurrent permutation runs
	NameRLGreedyStaged   = "rl-greedy-staged"   // RL-Greedy under gradual price reveal (§6.3)
	NameNaiveGreedy      = "naive-greedy"       // reference O(n²) Global Greedy
	NameTopRevenue       = "top-revenue"        // TopRev baseline (§6.1)
	NameTopRating        = "top-rating"         // TopRat baseline (§6.1)
	NameLocalSearch      = "local-search"       // 1/(4+ε) R-REVMAX approximation (§4.2)
	NameOptimal          = "optimal"            // exhaustive validator (tiny instances)
)

func init() {
	Register(Func(NameGGreedy, func(ctx context.Context, in *model.Instance, o Options) (Result, error) {
		if o.Session != nil {
			return o.Session.SolveCtx(ctx, o.progressFor(NameGGreedy))
		}
		if len(o.Warm) > 0 {
			return core.GGreedyWarmCtx(ctx, in, o.Warm, o.progressFor(NameGGreedy))
		}
		return core.GGreedyCtx(ctx, in, o.progressFor(NameGGreedy))
	}))
	Register(Func(NameGGreedyNo, func(ctx context.Context, in *model.Instance, o Options) (Result, error) {
		return core.GlobalNoCtx(ctx, in, o.progressFor(NameGGreedyNo))
	}))
	Register(Func(NameGGreedyStaged, func(ctx context.Context, in *model.Instance, o Options) (Result, error) {
		return core.GGreedyStagedCtx(ctx, in, o.progressFor(NameGGreedyStaged), o.Cuts...)
	}))
	Register(Func(NameSLGreedy, func(ctx context.Context, in *model.Instance, o Options) (Result, error) {
		return core.SLGreedyCtx(ctx, in, o.progressFor(NameSLGreedy))
	}))
	Register(Func(NameRLGreedy, func(ctx context.Context, in *model.Instance, o Options) (Result, error) {
		return core.RLGreedyCtx(ctx, in, o.Perms, o.Seed, o.progressFor(NameRLGreedy))
	}))
	Register(Func(NameRLGreedyParallel, func(ctx context.Context, in *model.Instance, o Options) (Result, error) {
		return core.RLGreedyParallelCtx(ctx, in, o.Perms, o.Seed, o.Workers, o.progressFor(NameRLGreedyParallel))
	}))
	Register(Func(NameRLGreedyStaged, func(ctx context.Context, in *model.Instance, o Options) (Result, error) {
		return core.RLGreedyStagedCtx(ctx, in, o.Perms, o.Seed, o.progressFor(NameRLGreedyStaged), o.Cuts...)
	}))
	Register(Func(NameNaiveGreedy, func(ctx context.Context, in *model.Instance, o Options) (Result, error) {
		return core.NaiveGreedyCtx(ctx, in)
	}))
	Register(Func(NameTopRevenue, func(ctx context.Context, in *model.Instance, o Options) (Result, error) {
		return core.TopRECtx(ctx, in)
	}))
	Register(Func(NameTopRating, func(ctx context.Context, in *model.Instance, o Options) (Result, error) {
		if o.Rating == nil {
			return Result{}, fmt.Errorf("solver: %q requires Options.Rating", NameTopRating)
		}
		return core.TopRACtx(ctx, in, o.Rating)
	}))
	Register(Func(NameLocalSearch, solveLocalSearch))
	Register(Func(NameOptimal, func(ctx context.Context, in *model.Instance, o Options) (Result, error) {
		return core.OptimalCtx(ctx, in)
	}))

	RegisterAlias("gg", NameGGreedy)
	RegisterAlias("gg-no", NameGGreedyNo)
	RegisterAlias("gg-staged", NameGGreedyStaged)
	RegisterAlias("slg", NameSLGreedy)
	RegisterAlias("rlg", NameRLGreedy)
	RegisterAlias("rlg-parallel", NameRLGreedyParallel)
	RegisterAlias("rlg-staged", NameRLGreedyStaged)
	RegisterAlias("toprev", NameTopRevenue)
	RegisterAlias("toprat", NameTopRating)
	RegisterAlias("ls", NameLocalSearch)
}

// solveLocalSearch runs the §4.2 R-REVMAX approximation: local search
// over the display partition matroid with the capacity constraint
// pushed into the effective-revenue objective. When the capacity oracle
// is the Monte-Carlo estimator, ctx is attached to it so in-flight
// oracle calls abort with the search.
func solveLocalSearch(ctx context.Context, in *model.Instance, o Options) (Result, error) {
	oracle := o.Oracle
	if oracle == nil {
		oracle = poibin.ExactOracle{}
	}
	if mc, ok := oracle.(*poibin.MonteCarloOracle); ok {
		oracle = mc.WithContext(ctx)
	}
	var ground []model.Triple
	for u := 0; u < in.NumUsers; u++ {
		for _, c := range in.UserCandidates(model.UserID(u)) {
			ground = append(ground, c.Triple)
		}
	}
	sys := matroid.NewPartition(in.K)
	res, err := localsearch.MaximizeCtx(ctx, ground, sys, func(s *model.Strategy) float64 {
		return revenue.EffectiveRevenue(in, s, oracle)
	}, localsearch.Options{Epsilon: o.Epsilon})
	out := Result{
		Strategy:   res.Strategy,
		Revenue:    res.Value,
		Selections: res.Strategy.Len(),
	}
	// Local search works on the ground set of candidates, so its output
	// always has a flat representation.
	if p, ok := in.PlanOf(res.Strategy); ok {
		out.Plan = p
		// Revenue above is the capacity-aware objective the search ran on;
		// the plan's Definition 2 revenue has no evaluator to come from.
		out.CanonicalRevenue = revenue.Revenue(in, res.Strategy)
	}
	return out, err
}
