// Package revmax is a Go implementation of "Show Me the Money: Dynamic
// Recommendations for Revenue Maximization" (Lu, Chen, Li, Lakshmanan —
// PVLDB 7(14), 2014). It provides the REVMAX revenue model (prices,
// valuations, saturation, competition over a finite horizon), the
// greedy recommendation algorithms of §5 (Global Greedy with two-level
// heaps and lazy forward, Sequential and Randomized Local Greedy), the
// baselines and approximation machinery of §4/§6, dataset generators
// replicating the paper's evaluation data, and an experiment harness
// regenerating every table and figure.
//
// Quick start:
//
//	in := revmax.NewInstance(numUsers, numItems, horizon, k)
//	in.SetItem(item, class, beta, capacity)
//	in.SetPrice(item, t, price)
//	in.AddCandidate(user, item, t, q)
//	in.FinishCandidates()
//	res, err := revmax.Solve(ctx, in, revmax.Options{Algorithm: "g-greedy"})
//	fmt.Println(res.Revenue, res.Strategy.Triples())
//
// Solve is the unified entry point: every algorithm — the §5 greedies,
// the staged §6.3 variants, the §6.1 baselines, the §4.2 local-search
// approximation — is registered under a name (List enumerates them),
// runs under a context (cancellation and deadlines abort the inner
// loops promptly), and reports progress through Options.Progress.
//
// The package is a thin facade over the internal subsystem packages; all
// types are aliases, so values flow freely between the facade and any
// internal API an advanced user might reach for.
package revmax

import (
	"context"

	"repro/internal/core"
	"repro/internal/matching"
	"repro/internal/model"
	"repro/internal/poibin"
	"repro/internal/randprice"
	"repro/internal/revenue"
	"repro/internal/solver"
)

// Core model types.
type (
	// Instance is a complete REVMAX problem instance (§3.1).
	Instance = model.Instance
	// Strategy is a set of (user, item, time) recommendation triples.
	Strategy = model.Strategy
	// Triple is a single recommendation.
	Triple = model.Triple
	// Candidate couples a triple with its primitive adoption probability.
	Candidate = model.Candidate
	// CandID is a dense, stable candidate index assigned by
	// Instance.FinishCandidates — the currency of the flat hot path.
	CandID = model.CandID
	// Plan is the flat candidate-indexed strategy representation: a
	// bitset over CandID with O(1) constraint-checked set operations.
	// Construct with Instance.NewPlan; convert with Plan.Strategy and
	// Instance.PlanOf.
	Plan = model.Plan
	// UserID identifies a user.
	UserID = model.UserID
	// ItemID identifies an item.
	ItemID = model.ItemID
	// ClassID identifies a competition class.
	ClassID = model.ClassID
	// TimeStep is a 1-based time step in the horizon.
	TimeStep = model.TimeStep
	// Result is the output of a recommendation algorithm.
	Result = core.Result
	// RatingFn supplies predicted ratings to the TopRA baseline.
	RatingFn = core.RatingFn
)

// NewInstance allocates an instance with numUsers users, numItems items,
// horizon [1, horizon], and per-(user, time) display limit k.
func NewInstance(numUsers, numItems, horizon, k int) *Instance {
	return model.NewInstance(numUsers, numItems, horizon, k)
}

// NewStrategy returns an empty strategy.
func NewStrategy() *Strategy { return model.NewStrategy() }

// StrategyOf builds a strategy from explicit triples.
func StrategyOf(ts ...Triple) *Strategy { return model.StrategyOf(ts...) }

// Unified solver API — one entry point over the whole algorithm suite,
// backed by the internal/solver registry.
type (
	// Options configures a Solve call: the algorithm name plus every
	// tunable the suite understands (permutations, seed, workers,
	// staged cut-offs, local-search epsilon/oracle, rating predictor,
	// progress callback). The zero value runs G-Greedy with defaults.
	Options = solver.Options
	// Algorithm is one registered solving strategy; implement it (and
	// RegisterAlgorithm it) to make a custom planner nameable from
	// configs, scenarios, and the serving daemon.
	Algorithm = solver.Algorithm
	// Progress is one in-flight progress report from a running solve.
	Progress = core.Progress
	// ProgressFn receives Progress reports via Options.Progress.
	ProgressFn = core.ProgressFn
)

// DefaultAlgorithm is the name an empty Options.Algorithm resolves to.
const DefaultAlgorithm = solver.DefaultAlgorithm

// Solve runs the named algorithm on in under ctx. Cancellation and
// deadlines propagate into the algorithms' inner loops, which abort
// promptly with ctx.Err(); a canceled Solve never returns a Result
// without a non-nil error. See List for the registered names.
func Solve(ctx context.Context, in *Instance, opts Options) (Result, error) {
	return solver.Solve(ctx, in, opts)
}

// List returns the canonical names of every registered algorithm,
// sorted (aliases like "GG" resolve through Lookup but are not listed).
func List() []string { return solver.List() }

// Lookup resolves an algorithm name or alias, case-insensitively.
func Lookup(name string) (Algorithm, error) { return solver.Lookup(name) }

// RegisterAlgorithm adds a custom algorithm to the global registry; it
// panics on duplicate names (call it from an init function).
func RegisterAlgorithm(a Algorithm) { solver.Register(a) }

// Revenue computes the expected revenue Rev(S) of Definition 2.
func Revenue(in *Instance, s *Strategy) float64 { return revenue.Revenue(in, s) }

// DynamicProb computes the dynamic adoption probability q_S(u,i,t) of
// Definition 1 (0 when the triple is not in S).
func DynamicProb(in *Instance, s *Strategy, z Triple) float64 {
	return revenue.DynamicProb(in, s, z)
}

// MarginalRevenue computes Rev(S ∪ {z}) − Rev(S) (Definition 3).
func MarginalRevenue(in *Instance, s *Strategy, z Triple) float64 {
	return revenue.MarginalRevenue(in, s, z)
}

// CapacityOracle estimates the Poisson-binomial capacity factor B_S(i,t)
// of Definition 4.
type CapacityOracle = revenue.CapacityOracle

// ExactOracle computes B_S exactly by dynamic programming.
type ExactOracle = poibin.ExactOracle

// NewMonteCarloOracle returns the paper's sampling estimator for B_S.
func NewMonteCarloOracle(samples int, seed uint64) CapacityOracle {
	return poibin.NewMonteCarloOracle(samples, seed)
}

// EffectiveRevenue computes the R-REVMAX objective: Definition 2 with
// the effective dynamic adoption probability of Definition 4.
func EffectiveRevenue(in *Instance, s *Strategy, oracle CapacityOracle) float64 {
	return revenue.EffectiveRevenue(in, s, oracle)
}

// SolveT1 solves the PTIME T = 1 special case exactly via maximum-weight
// degree-constrained subgraphs (§3.2). See internal/matching for the
// documented caveat about same-time competition when k > 1.
func SolveT1(in *Instance, t TimeStep) (*Strategy, float64, error) {
	res, err := matching.SolveT1(in, t)
	if err != nil {
		return nil, 0, err
	}
	return res.Strategy, res.Weight, nil
}

// RandomPriceModel is the §7 extension: expected revenue under random
// prices via second-order Taylor approximation.
type RandomPriceModel = randprice.Model

// AdoptFn maps a triple and a realized price to a primitive adoption
// probability (the price-dependent q̃ of the random-price model).
type AdoptFn = randprice.AdoptFn
