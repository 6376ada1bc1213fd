// Package core implements the RevMax recommendation algorithms of Lu et
// al. (VLDB 2014): the Global Greedy with two-level heaps and lazy
// forward (Algorithm 1), the Sequential and Randomized Local Greedy
// algorithms (Algorithm 2 and §5.2), the baselines TopRA, TopRE and
// GlobalNo used in the evaluation (§6.1), and an exhaustive optimal
// solver for tiny instances used to validate the heuristics.
package core

import (
	"repro/internal/model"
	"repro/internal/revenue"
)

// Eps is the positivity threshold for marginal revenue: candidates whose
// marginal gain does not exceed Eps are never selected (Eq. 6 requires a
// strictly positive marginal; the epsilon absorbs float64 noise).
const Eps = 1e-12

// Progress is one in-flight progress report from a Ctx algorithm
// variant: Done of Total units finished (permutations for the RL-Greedy
// family, selections for the greedy scans) and the best revenue found so
// far. Total is 0 when the unit count is not known up front; Best is 0
// until a first full candidate strategy exists.
type Progress struct {
	// Algorithm is the registry name of the running algorithm; filled by
	// the solver dispatch layer, empty when a core Ctx function is called
	// directly.
	Algorithm string
	Done      int
	Total     int
	Best      float64
}

// ProgressFn receives progress reports. It is called synchronously from
// the solving goroutine (RLGreedyParallelCtx serializes calls), so it
// must be fast; nil disables reporting.
type ProgressFn func(Progress)

// Result is the output of a RevMax algorithm run.
type Result struct {
	// Strategy is the map-based view of the selected plan, materialized
	// at the end of the run for downstream consumers (codecs, metrics,
	// the offline CLIs). Serving never reads it: engines and clusters
	// install Plan. Hot paths should prefer Plan. Session solves
	// leave it nil — a replan per adoption burst must not build a
	// plan-sized map nobody reads; Plan.Strategy() yields it on demand.
	Strategy *model.Strategy
	// Plan is the flat candidate-indexed representation the algorithm
	// inner loops actually ran on. It is nil for algorithms whose output
	// can contain non-candidate triples (TopRA's q=0 repeats).
	Plan *model.Plan
	// Revenue is Rev(Strategy) under the true model. A from-scratch solve
	// reports the running sum of its per-selection gains (the value the
	// goldens pin); a Session solve, whose evaluator outlives any one
	// selection sequence, reports CanonicalRevenue here.
	Revenue float64
	// CanonicalRevenue is revenue.Revenue(in, Strategy) bit for bit — the
	// (user, class)-ordered sum the evaluator already holds — so callers
	// that publish a plan's revenue need not re-derive it from the
	// strategy. A from-scratch solve's Revenue is the path-dependent
	// running sum and may differ from it in the last bits. Valid exactly
	// when Plan != nil.
	CanonicalRevenue float64
	// Evaluator is the evaluator the run scored Plan with: its group
	// partials (GroupPartial, ascending group ID) are the terms
	// CanonicalRevenue sums, so a caller can split the plan's revenue by
	// user without re-evaluating it. nil for algorithms that do not keep
	// one (exhaustive and local search, the loose-state baselines). A
	// Session's evaluator is live: read it before the session's next
	// event or solve.
	Evaluator *revenue.Evaluator

	// Selections counts triples added; Recomputations counts lazy-forward
	// marginal-revenue recomputations (a measure of how much work lazy
	// forward saved relative to eager updates).
	Selections     int
	Recomputations int

	// Curve records Rev(S) after each selection, in selection order — the
	// revenue-vs-|S| growth data behind Figure 4. Session solves leave it
	// nil: most of their plan was never re-selected, so there is no
	// selection order to plot; only from-scratch solves feed the figures.
	Curve []float64

	// Stats is the phase breakdown of the run, feeding the observability
	// layer (solve spans, per-phase counters). Zero-valued for algorithms
	// that do not report it.
	Stats SolveStats
}

// SolveStats is the per-solve phase breakdown the G-Greedy family
// reports: how much candidate-scan versus selection work the solve did,
// and what a warm start salvaged. Counters accumulate across windows for
// the staged variant.
type SolveStats struct {
	// Considered counts candidates that entered the heap (after any
	// seeded-state feasibility pruning).
	Considered int
	// HeapPops counts main-loop iterations — every inspection of the heap
	// root, whether it selected, recomputed, or discarded.
	HeapPops int
	// WarmKept and WarmDropped count warm-start seeds retained in versus
	// invalidated from the previous plan. Zero for cold solves.
	WarmKept    int
	WarmDropped int
	// ScanNanos and SelectNanos split the solve wall time into the
	// candidate-scan/heap-build phase and the selection loop.
	// For a window solved by the per-user pass, ScanNanos covers the
	// pass and SelectNanos its merge and commit.
	ScanNanos   int64
	SelectNanos int64
	// Path names the selection loop that ran. Empty for Session solves
	// and algorithms without a G-Greedy scan.
	Path SolvePath
}

// SolvePath names the selection loop a G-Greedy solve ran.
type SolvePath string

const (
	// PathPerUser: the per-user pass solved every scan window.
	PathPerUser SolvePath = "per-user"
	// PathGlobal: at least one window ran the global two-level heap loop:
	// capacity could bind on the instance, the caller forced the global
	// loop (GGreedyGlobal), or ctx was canceled during the pass.
	PathGlobal SolvePath = "global"
)

// state carries everything a greedy run mutates: the growing plan (which
// is also Algorithm 1's constraint counters — display and distinct-user
// counts live inside it as O(1) arrays) and the incremental revenue
// evaluator. All hot-path operations address candidates by CandID; no
// maps, no per-op allocation.
type state struct {
	in    *model.Instance
	ev    *revenue.Evaluator
	p     *model.Plan
	curve []float64
	stats SolveStats
	// globalOnly makes gGreedyWindow skip the per-user pass.
	globalOnly bool
}

func newState(in *model.Instance) *state {
	return &state{
		in: in,
		ev: revenue.NewEvaluator(in),
		p:  in.NewPlan(),
	}
}

// newGlobalState is newState for a solve that forces the global loop.
func newGlobalState(in *model.Instance) *state {
	st := newState(in)
	st.globalOnly = true
	return st
}

// violation classifies why adding a triple would be invalid.
type violation int

const (
	violationNone violation = iota
	violationDisplay
	violationCapacity
)

// check reports whether candidate id can be added to the current plan.
// Both violation kinds are permanent once they occur (plans only grow),
// which is what lets the heaps drop infeasible entries for good.
func (st *state) check(id model.CandID) violation {
	switch st.p.Check(id) {
	case model.PlanDisplay:
		return violationDisplay
	case model.PlanCapacity:
		return violationCapacity
	}
	return violationNone
}

// add commits candidate id to the plan and returns the realized gain.
func (st *state) add(id model.CandID) float64 {
	st.p.Add(id)
	delta := st.ev.AddID(id)
	st.curve = append(st.curve, st.ev.Total())
	return delta
}

// remove undoes an add (used by the exhaustive search).
func (st *state) remove(id model.CandID) {
	st.p.Remove(id)
	st.ev.RemoveID(id)
}

func (st *state) len() int { return st.p.Len() }

func (st *state) result(selections, recomputations int) Result {
	res := st.planResult(selections, recomputations)
	res.Strategy = st.p.Strategy()
	return res
}

// planResult is result without the materialized Strategy.
func (st *state) planResult(selections, recomputations int) Result {
	return Result{
		Plan:             st.p,
		Revenue:          st.ev.Total(),
		CanonicalRevenue: st.ev.CanonicalTotal(),
		Evaluator:        st.ev,
		Selections:       selections,
		Recomputations:   recomputations,
		Curve:            st.curve,
		Stats:            st.stats,
	}
}

// displayKey identifies a (user, time) display slot of the loose state.
type displayKey struct {
	u model.UserID
	t model.TimeStep
}

// looseState is the map-based fallback state for algorithms whose
// strategies may contain non-candidate triples — today only the TopRA
// baseline, which repeats its top-rated items at every time step
// including q=0 ones. Semantics match state exactly.
type looseState struct {
	in        *model.Instance
	ev        *revenue.Evaluator
	s         *model.Strategy
	display   map[displayKey]int
	itemUsers []map[model.UserID]struct{}
	curve     []float64
}

func newLooseState(in *model.Instance) *looseState {
	return &looseState{
		in:        in,
		ev:        revenue.NewEvaluator(in),
		s:         model.NewStrategy(),
		display:   make(map[displayKey]int),
		itemUsers: make([]map[model.UserID]struct{}, in.NumItems()),
	}
}

func (st *looseState) check(z model.Triple) violation {
	if st.s.Contains(z) {
		return violationDisplay // already chosen; treat as unusable slot
	}
	if st.display[displayKey{z.U, z.T}] >= st.in.K {
		return violationDisplay
	}
	users := st.itemUsers[z.I]
	if users != nil {
		if _, ok := users[z.U]; ok {
			return violationNone // repeat to an existing recipient: no new capacity use
		}
	}
	if len(users) >= st.in.Capacity(z.I) {
		return violationCapacity
	}
	return violationNone
}

func (st *looseState) add(z model.Triple, q float64) float64 {
	st.s.Add(z)
	st.display[displayKey{z.U, z.T}]++
	users := st.itemUsers[z.I]
	if users == nil {
		users = make(map[model.UserID]struct{})
		st.itemUsers[z.I] = users
	}
	users[z.U] = struct{}{}
	delta := st.ev.Add(z, q)
	st.curve = append(st.curve, st.ev.Total())
	return delta
}

func (st *looseState) result(selections, recomputations int) Result {
	return Result{
		Strategy:       st.s,
		Revenue:        st.ev.Total(),
		Selections:     selections,
		Recomputations: recomputations,
		Curve:          st.curve,
	}
}

// maxSelections is the k·T·|U| bound of Algorithm 1, line 11.
func maxSelections(in *model.Instance) int {
	return in.K * in.T * in.NumUsers
}

// pairCaps returns each (user, item) pair's candidate count — the
// lower-heap capacities handed to the dense two-level heap so its
// storage is one bulk allocation.
func pairCaps(in *model.Instance) []int32 {
	caps := make([]int32, in.NumPairs())
	for p := range caps {
		caps[p] = int32(in.PairCandCount(int32(p)))
	}
	return caps
}
