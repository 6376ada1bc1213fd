package core

import (
	"context"
	"fmt"

	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/pqueue"
)

// SLGreedy runs Sequential Local Greedy (Algorithm 2): recommendations
// are finalized one time step at a time in natural chronological order
// 1, 2, ..., T; within each step a single-level max-heap with lazy
// forward performs the greedy selection.
func SLGreedy(in *model.Instance) Result {
	res, _ := SLGreedyCtx(context.Background(), in, nil)
	return res
}

// SLGreedyCtx is SLGreedy with cancellation and progress reporting (one
// report per finalized time step). Cancellation is checked once per
// selection attempt inside each step and aborts with ctx.Err(),
// returning the partial strategy alongside the error.
func SLGreedyCtx(ctx context.Context, in *model.Instance, progress ProgressFn) (Result, error) {
	st := newState(in)
	sel, rec := 0, 0
	for t := model.TimeStep(1); int(t) <= in.T; t++ {
		s, r, err := localRound(ctx, st, t)
		sel += s
		rec += r
		if err != nil {
			return st.result(sel, rec), err
		}
		if progress != nil {
			progress(Progress{Done: int(t), Total: in.T, Best: st.ev.Total()})
		}
	}
	return st.result(sel, rec), nil
}

// RLGreedy runs Randomized Local Greedy (§5.2): it samples n distinct
// permutations of [T], runs per-time-step greedy selection in each
// permuted order, and returns the strategy with the largest revenue. The
// run is deterministic for a fixed seed. n is capped at T! for tiny
// horizons.
func RLGreedy(in *model.Instance, n int, seed uint64) Result {
	res, _ := RLGreedyCtx(context.Background(), in, n, seed, nil)
	return res
}

// RLGreedyCtx is RLGreedy with cancellation and progress reporting (one
// report per completed permutation). Cancellation is checked before
// every permutation and once per selection attempt within one, so a
// canceled run returns within a single permutation round with ctx.Err()
// and the best complete strategy found so far.
func RLGreedyCtx(ctx context.Context, in *model.Instance, n int, seed uint64, progress ProgressFn) (Result, error) {
	perms := samplePermutations(in.T, n, seed)
	var best Result
	for idx, perm := range perms {
		if err := ctx.Err(); err != nil {
			return best, err
		}
		st := newState(in)
		sel, rec := 0, 0
		for _, t := range perm {
			s, r, err := localRound(ctx, st, model.TimeStep(t))
			sel += s
			rec += r
			if err != nil {
				return best, err
			}
		}
		res := st.result(sel, rec)
		if idx == 0 || res.Revenue > best.Revenue {
			best = res
		}
		if progress != nil {
			progress(Progress{Done: idx + 1, Total: len(perms), Best: best.Revenue})
		}
	}
	return best, nil
}

// RLGreedyStaged is RL-Greedy under gradual price availability (§6.3):
// permutations are sampled within each sub-horizon window independently,
// since the algorithm cannot reorder time steps it has not seen yet.
func RLGreedyStaged(in *model.Instance, n int, seed uint64, cuts ...int) Result {
	res, _ := RLGreedyStagedCtx(context.Background(), in, n, seed, nil, cuts...)
	return res
}

// RLGreedyStagedCtx is RLGreedyStaged with cancellation and progress
// reporting; see RLGreedyCtx for the contract (one report per trial).
func RLGreedyStagedCtx(ctx context.Context, in *model.Instance, n int, seed uint64, progress ProgressFn, cuts ...int) (Result, error) {
	windows := windowsOf(in.T, cuts)
	var best Result
	rng := dist.NewRNG(seed)
	for trial := 0; trial < n; trial++ {
		if err := ctx.Err(); err != nil {
			return best, err
		}
		st := newState(in)
		sel, rec := 0, 0
		for _, w := range windows {
			order := make([]int, len(w))
			copy(order, w)
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			for _, t := range order {
				s, r, err := localRound(ctx, st, model.TimeStep(t))
				sel += s
				rec += r
				if err != nil {
					return best, err
				}
			}
		}
		res := st.result(sel, rec)
		if trial == 0 || res.Revenue > best.Revenue {
			best = res
		}
		if progress != nil {
			progress(Progress{Done: trial + 1, Total: n, Best: best.Revenue})
		}
	}
	return best, nil
}

// windowsOf splits [1..T] at the given cut points: cuts = [c₁, ...] gives
// [1..c₁], [c₁+1..c₂], ..., [last+1..T].
func windowsOf(T int, cuts []int) [][]int {
	var windows [][]int
	lo := 1
	for _, c := range cuts {
		if c >= lo && c <= T {
			w := make([]int, 0, c-lo+1)
			for t := lo; t <= c; t++ {
				w = append(w, t)
			}
			windows = append(windows, w)
			lo = c + 1
		}
	}
	if lo <= T {
		w := make([]int, 0, T-lo+1)
		for t := lo; t <= T; t++ {
			w = append(w, t)
		}
		windows = append(windows, w)
	}
	return windows
}

// localRound performs the greedy selection for one time step (Algorithm
// 2, lines 5–15), continuing from st's current strategy. ctx is checked
// once per heap iteration, so a canceled round aborts within one
// selection attempt.
func localRound(ctx context.Context, st *state, t model.TimeStep) (selections, recomputations int, err error) {
	in := st.in
	var heap pqueue.Max
	// Count the step's candidates first so the entries live in one
	// bulk-allocated backing array (pointers must stay stable).
	flat := in.Candidates()
	n := 0
	for id := range flat {
		if flat[id].T == t {
			n++
		}
	}
	entries := make([]pqueue.Entry, 0, n)
	for id := range flat {
		c := &flat[id]
		if c.T != t {
			continue
		}
		cid := model.CandID(id)
		entries = append(entries, pqueue.Entry{
			ID:   cid,
			Key:  st.ev.MarginalGainID(cid),
			Flag: int32(st.ev.GroupSizeID(cid)),
		})
		heap.Push(&entries[len(entries)-1])
	}
	for !heap.Empty() {
		if err := ctx.Err(); err != nil {
			return selections, recomputations, err
		}
		e := heap.Peek()
		if e.Key <= Eps {
			break
		}
		if st.check(e.ID) != violationNone {
			heap.Pop()
			continue
		}
		fresh := int32(st.ev.GroupSizeID(e.ID))
		if e.Flag < fresh {
			e.Key = st.ev.MarginalGainID(e.ID)
			e.Flag = fresh
			recomputations++
			heap.Fix(e)
			continue
		}
		st.add(e.ID)
		selections++
		heap.Pop()
	}
	return selections, recomputations, nil
}

// samplePermutations returns up to n distinct uniform permutations of
// {1..T}, deterministically for a fixed seed. When n ≥ T! it returns all
// T! permutations.
func samplePermutations(T, n int, seed uint64) [][]int {
	total := 1
	for i := 2; i <= T; i++ {
		total *= i
		if total >= 1<<20 { // avoid overflow for large T; n ≪ T! anyway
			total = 1 << 20
			break
		}
	}
	if n > total {
		n = total
	}
	rng := dist.NewRNG(seed)
	seen := make(map[string]struct{}, n)
	perms := make([][]int, 0, n)
	for len(perms) < n {
		p := rng.Perm(T)
		for i := range p {
			p[i]++ // time steps are 1-based
		}
		key := fmt.Sprint(p)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		perms = append(perms, p)
	}
	return perms
}
