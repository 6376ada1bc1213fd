package core

import (
	"context"
	"fmt"

	"repro/internal/model"
	"repro/internal/revenue"
)

// maxExhaustiveCandidates bounds the exhaustive solver's input size; with
// n candidates the search explores up to 2ⁿ subsets.
const maxExhaustiveCandidates = 22

// Optimal exhaustively searches all valid strategies and returns one with
// maximum expected revenue. It is exponential in the number of candidates
// and refuses inputs with more than maxExhaustiveCandidates of them; it
// exists to certify the heuristics on tiny instances (REVMAX is NP-hard,
// Theorem 1, so no better exact general-purpose solver is expected).
func Optimal(in *model.Instance) (Result, error) {
	return OptimalCtx(context.Background(), in)
}

// OptimalCtx is Optimal with cancellation: the exhaustive search checks
// ctx every few thousand explored subsets and aborts with ctx.Err()
// (the exponential search is exactly where a deadline matters most).
func OptimalCtx(ctx context.Context, in *model.Instance) (Result, error) {
	n := in.NumCands()
	if n > maxExhaustiveCandidates {
		return Result{}, fmt.Errorf("core: %d candidates exceed exhaustive limit %d", n, maxExhaustiveCandidates)
	}

	st := newState(in)
	best := in.NewPlan()
	bestRev := 0.0
	nodes := 0
	canceled := false

	var dfs func(id model.CandID)
	dfs = func(id model.CandID) {
		if canceled {
			return
		}
		if nodes++; nodes&0xFFF == 0 && ctx.Err() != nil {
			canceled = true
			return
		}
		if int(id) == n {
			if r := st.ev.Total(); r > bestRev {
				bestRev = r
				best = st.p.Clone()
			}
			return
		}
		// Branch 1: skip.
		dfs(id + 1)
		// Branch 2: take, if valid. The plan's counters make the undo an
		// exact O(1) reversal (no recipient-set bookkeeping needed).
		if st.check(id) == violationNone {
			st.add(id)
			dfs(id + 1)
			st.remove(id)
		}
	}
	dfs(0)
	if canceled {
		return Result{}, ctx.Err()
	}

	s := best.Strategy()
	rev := revenue.Revenue(in, s)
	return Result{Strategy: s, Plan: best, Revenue: rev, CanonicalRevenue: rev, Selections: best.Len()}, nil
}
