package core

import (
	"context"
	"sort"
	"time"

	"repro/internal/model"
	"repro/internal/pqueue"
)

// GGreedy runs Global Greedy (Algorithm 1) over the whole horizon: it
// repeatedly adds the candidate triple with the largest positive marginal
// revenue that keeps the strategy valid, using the two-level heap
// structure and the lazy-forward optimization.
func GGreedy(in *model.Instance) Result {
	res, _ := GGreedyCtx(context.Background(), in, nil)
	return res
}

// GGreedyCtx is GGreedy with cancellation and progress reporting: the
// lazy-forward scan checks ctx once per loop iteration and aborts with
// ctx.Err(), returning the partial strategy selected so far alongside
// the error. With a background context the output is identical to
// GGreedy.
func GGreedyCtx(ctx context.Context, in *model.Instance, progress ProgressFn) (Result, error) {
	st := newState(in)
	sel, rec, err := gGreedyWindow(ctx, st, 1, model.TimeStep(in.T), progress, false)
	return st.result(sel, rec), err
}

// GGreedyWarm runs Global Greedy warm-started from a previous plan's
// triples (receding-horizon replanning: the previous solution is mostly
// still good after one adoption batch). See GGreedyWarmCtx.
func GGreedyWarm(in *model.Instance, warm []model.Triple) Result {
	res, _ := GGreedyWarmCtx(context.Background(), in, warm, nil)
	return res
}

// GGreedyWarmCtx seeds the greedy state with the still-feasible triples
// of warm — dropping triples invalidated since the seed plan was
// computed: no longer candidates of the instance (class adopted, stock
// depleted, zero residual probability after saturation folding),
// constraint-violating against the seeds already placed, or no longer
// contributing positive marginal revenue under current prices and
// saturation (repriced to nothing, or cannibalized by the seeds before
// it) — and then resumes the lazy-forward scan from that state instead
// of an empty strategy. Seeds are applied in canonical triple order and
// cost one group evaluation each (the realized add delta doubles as the
// profitability check), so equal (instance, warm) inputs give
// byte-identical outputs. Result.Curve covers the seeds and the scan.
//
// A warm-started solve generally differs from a cold solve: the greedy
// commits to the seed before scanning. Callers that need cold-solve
// byte-identity (scenario goldens) must not pass warm seeds.
func GGreedyWarmCtx(ctx context.Context, in *model.Instance, warm []model.Triple, progress ProgressFn) (Result, error) {
	st := newState(in)
	seeded := seedWarm(st, warm)
	// Upper-bound initialization: against the seeded state, exact initial
	// marginals would cost a full group evaluation per candidate — more
	// than the seeds saved. The saturation-free key p·q is a true upper
	// bound on any marginal gain, so the lazy-forward flag discipline
	// recomputes exactly the candidates that reach the heap root.
	sel, rec, err := gGreedyWindow(ctx, st, 1, model.TimeStep(in.T), progress, true)
	return st.result(seeded+sel, rec), err
}

// seedWarm applies a warm plan's still-feasible triples to st in
// canonical order and returns how many were kept. Shared by the
// sequential and parallel warm-started solvers, so both commit to
// byte-identical seeded states for equal (instance, warm) inputs.
func seedWarm(st *state, warm []model.Triple) int {
	ws := append([]model.Triple(nil), warm...)
	sort.Slice(ws, func(a, b int) bool { return ws[a].Less(ws[b]) })
	seeded := 0
	for _, z := range ws {
		id, ok := st.in.CandIDOf(z)
		if !ok {
			continue // invalidated: no longer a candidate of the residual
		}
		if st.check(id) != violationNone {
			continue // invalidated: display slot or item capacity gone
		}
		if st.add(id) <= Eps {
			// Invalidated: no longer pays under current prices/saturation.
			// One group evaluation per kept seed (the common case), two
			// per dropped one.
			st.remove(id)
			continue
		}
		seeded++
	}
	st.stats.WarmKept = seeded
	st.stats.WarmDropped = len(ws) - seeded
	return seeded
}

// GGreedyStaged runs Global Greedy with prices revealed in sub-horizons
// (§6.3): cuts = [c₁, c₂, ...] splits [1,T] into windows [1,c₁],
// [c₁+1,c₂], ..., [last+1, T]; the algorithm finalizes each window's
// recommendations before seeing the next window. GGreedyStaged(in) with
// no cuts is identical to GGreedy(in).
func GGreedyStaged(in *model.Instance, cuts ...int) Result {
	res, _ := GGreedyStagedCtx(context.Background(), in, nil, cuts...)
	return res
}

// GGreedyStagedCtx is GGreedyStaged with cancellation and progress
// reporting; see GGreedyCtx for the contract.
func GGreedyStagedCtx(ctx context.Context, in *model.Instance, progress ProgressFn, cuts ...int) (Result, error) {
	st := newState(in)
	sel, rec := 0, 0
	lo := model.TimeStep(1)
	for _, c := range cuts {
		hi := model.TimeStep(c)
		if hi >= lo {
			s, r, err := gGreedyWindow(ctx, st, lo, hi, progress, false)
			sel += s
			rec += r
			if err != nil {
				return st.result(sel, rec), err
			}
			lo = hi + 1
		}
	}
	if int(lo) <= in.T {
		s, r, err := gGreedyWindow(ctx, st, lo, model.TimeStep(in.T), progress, false)
		sel += s
		rec += r
		if err != nil {
			return st.result(sel, rec), err
		}
	}
	return st.result(sel, rec), nil
}

// gGreedyWindow executes Algorithm 1 restricted to candidates whose time
// step lies in [lo, hi], continuing from whatever st already contains.
// ctx is checked once per main-loop iteration — each iteration performs
// at least one heap operation, so cancellation is seen within one
// selection attempt.
//
// upperBoundInit selects the initial-key policy. false: exact marginals
// against the current state — line 8 of Algorithm 1, and what the
// staged variants' byte-identical outputs are pinned to (for an empty
// state the exact marginal IS p·q, via the evaluator's empty-group fast
// path, so cold runs pay nothing). true (warm starts): the
// saturation-free upper bound p·q with a zero freshness stamp, so
// seeded groups don't force a full group evaluation per candidate up
// front — the lazy-forward discipline recomputes exactly the entries
// that reach the root.
func gGreedyWindow(ctx context.Context, st *state, lo, hi model.TimeStep, progress ProgressFn, upperBoundInit bool) (selections, recomputations int, err error) {
	in := st.in
	scanStart := time.Now()
	heap := pqueue.NewTwoLevelDense(in.NumPairs(), pairCaps(in))
	// Heap entries are bulk-allocated in one backing array; the capacity
	// covers the whole window so appends never reallocate (entry pointers
	// must stay stable once handed to the heap).
	flat := in.Candidates()
	// Cold scan on an empty state: every exact marginal is the
	// saturation-free p·q (the evaluator's empty-group fast path), so the
	// bulk branch-free key kernel fills all keys word-machine style and
	// the per-candidate evaluator calls disappear. Bit-identical by
	// construction; the zero flag equals every empty group's size.
	var coldKeys []float64
	if !upperBoundInit && st.ev.Len() == 0 && len(flat) > 0 {
		coldKeys = make([]float64, len(flat))
		in.UpperBoundKeys(0, model.CandID(len(flat)), coldKeys)
	}
	entries := make([]pqueue.Entry, 0, len(flat))
	for id := range flat {
		c := &flat[id]
		if c.T < lo || c.T > hi {
			continue
		}
		cid := model.CandID(id)
		key, flag := 0.0, int32(0)
		switch {
		case upperBoundInit:
			// Seeded state: skip candidates it already rules out — plans
			// only grow, so a full display slot or consumed capacity never
			// frees up. With a plan-sized seed this prunes most of the
			// candidate space before it ever touches the heap.
			if st.check(cid) != violationNone {
				continue
			}
			key = in.Price(c.I, c.T) * c.Q
		case coldKeys != nil:
			key = coldKeys[id]
		default:
			key = st.ev.MarginalGainID(cid)
			flag = int32(st.ev.GroupSizeID(cid))
		}
		entries = append(entries, pqueue.Entry{
			ID:   cid,
			Pair: in.PairOf(cid),
			Key:  key,
			Flag: flag,
		})
		heap.Add(&entries[len(entries)-1])
	}
	heap.Build()
	st.stats.Considered += len(entries)
	selectStart := time.Now()
	st.stats.ScanNanos += selectStart.Sub(scanStart).Nanoseconds()
	defer func() { st.stats.SelectNanos += time.Since(selectStart).Nanoseconds() }()

	limit := maxSelections(in)
	for st.len() < limit && !heap.Empty() {
		if err := ctx.Err(); err != nil {
			return selections, recomputations, err
		}
		st.stats.HeapPops++
		e := heap.PeekMax()
		if e == nil || e.Key <= Eps {
			break // no remaining triple has positive marginal revenue
		}
		switch st.check(e.ID) {
		case violationDisplay:
			heap.DeleteEntry(e)
			continue
		case violationCapacity:
			// The whole (user, item) pair can never become feasible again:
			// the item is at capacity and this user is not a recipient.
			heap.DeletePairOf(e)
			continue
		}
		fresh := int32(st.ev.GroupSizeID(e.ID))
		if e.Flag < fresh {
			// Stale root: recompute every sibling in the lower heap
			// (Algorithm 1, lines 15–19), stamp them fresh, re-heapify.
			for _, sib := range heap.PairEntriesOf(e) {
				sib.Key = st.ev.MarginalGainID(sib.ID)
				sib.Flag = fresh
				recomputations++
			}
			heap.FixPairOf(e)
			continue
		}
		// Fresh root: select it (lines 20–23).
		st.add(e.ID)
		selections++
		heap.DeleteMax()
		if progress != nil {
			progress(Progress{Done: st.len(), Total: limit, Best: st.ev.Total()})
		}
	}
	return selections, recomputations, nil
}

// NaiveGreedy is the reference implementation of Global Greedy: every
// iteration it scans all remaining feasible candidates and picks the one
// with the largest marginal revenue. O(n²·marginal); used in tests to
// certify that the lazy-forward two-level-heap implementation selects an
// equally good strategy.
func NaiveGreedy(in *model.Instance) Result {
	res, _ := NaiveGreedyCtx(context.Background(), in)
	return res
}

// NaiveGreedyCtx is NaiveGreedy with cancellation, checked once per
// selection scan.
func NaiveGreedyCtx(ctx context.Context, in *model.Instance) (Result, error) {
	st := newState(in)
	dead := make([]bool, in.NumCands())
	limit := maxSelections(in)
	selections := 0
	for st.len() < limit {
		if err := ctx.Err(); err != nil {
			return st.result(selections, 0), err
		}
		best := model.CandID(-1)
		bestGain := Eps
		for id := model.CandID(0); int(id) < len(dead); id++ {
			if dead[id] {
				continue
			}
			if st.check(id) != violationNone {
				dead[id] = true
				continue
			}
			g := st.ev.MarginalGainID(id)
			if g > bestGain {
				bestGain = g
				best = id
			}
		}
		if best < 0 {
			break
		}
		st.add(best)
		dead[best] = true
		selections++
	}
	return st.result(selections, 0), nil
}

// GlobalNo is the "degenerated" G-Greedy of §6.1: it selects triples as
// though saturation did not exist (βᵢ = 1 during selection) and is then
// scored under the true saturation factors. It quantifies the revenue
// lost by ignoring saturation.
func GlobalNo(in *model.Instance) Result {
	res, _ := GlobalNoCtx(context.Background(), in, nil)
	return res
}

// GlobalNoCtx is GlobalNo with cancellation and progress reporting.
// The partial result accompanying a cancellation error is re-scored on
// the true instance like a completed run — its Revenue is always the
// real Rev(S), never the inflated saturation-free value the blind
// selection ran on. (Progress reports, which stream mid-selection, do
// carry the blind objective.)
func GlobalNoCtx(ctx context.Context, in *model.Instance, progress ProgressFn) (Result, error) {
	blind := in.ShallowCloneWithBeta(1)
	res, err := GGreedyCtx(ctx, blind, progress)
	return scoreOn(in, res), err
}

// scoreOn re-scores a result's strategy under instance in's true model.
// The blind instance shares the true instance's candidate index
// (ShallowCloneWithBeta), so the plan's CandIDs carry over directly;
// ascending-ID iteration is the canonical order the map-era path used.
func scoreOn(in *model.Instance, res Result) Result {
	st := newState(in)
	if res.Plan != nil {
		res.Plan.Each(func(id model.CandID) bool {
			st.add(id)
			return true
		})
	} else {
		for _, z := range res.Strategy.Triples() {
			if id, ok := in.CandIDOf(z); ok {
				st.add(id)
			}
		}
	}
	out := st.result(res.Selections, res.Recomputations)
	out.Stats = res.Stats
	return out
}
