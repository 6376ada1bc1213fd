package core

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/pqueue"
	"repro/internal/revenue"
)

// This file parallelizes the lazy-forward G-Greedy scan. The design
// rests on a locality fact of the RevMax decomposition: display slots
// (user, time), capacity pairs (user, item), and revenue groups (user,
// class) are all per-user, so partitioning the candidate frontier at
// user boundaries makes every quantity the inner loop writes
// partition-local — the shared plan, evaluator, and item-capacity state
// are only ever written by the coordinator, between settle waves.
//
// Each partition owns a dense two-level heap over its candidates.
// A mutated ("dirty") partition must be settled before its root can
// compete: pop infeasible entries, recompute stale roots (the
// lazy-forward chains that dominate sequential solve time), and stop at
// a fresh local root. The coordinator repeatedly selects the best
// settled root under the deterministic total order (key desc, CandID
// asc) shared with the sequential heaps — but only once no dirty or
// still-settling partition could beat it: a partition's heap-top cached
// key when it went dirty is an upper bound on its eventual root (cached
// keys are upper bounds of true marginals and only decrease).
//
// Dispatch is lazy and hybrid. A partition that goes dirty is NOT
// immediately handed to the worker pool; it stays coordinator-owned
// until its upper bound actually blocks a selection. At that point, if
// it is the only blocker — the common case in steady state, where each
// selection dirties just the winner's partition — the coordinator
// settles it inline, with zero synchronization, so a single-core run
// costs what the sequential scan costs. When several partitions block
// at once (the initial wave, warm-replan invalidation bursts, capacity
// deletion cascades), all but one go to the worker pool and overlap on
// spare cores while the coordinator settles the last inline.
//
// Race freedom comes from a settle/select barrier instead of locks or
// atomics: settles read the shared plan, evaluator, and capacity state,
// and the coordinator mutates that state only when no settle is in
// flight. Settles in distinct partitions therefore only ever read
// shared state concurrently, and write nothing but their own partition.
// The channel hand-offs carry the happens-before edges both ways. The
// barrier also freezes item capacity during settles, which lets settle
// run the sequential scan's full feasibility check — display AND
// capacity — before any recompute, so capacity-dead pairs are dropped
// without wasting marginal-revenue work on them, exactly like the
// sequential loop. The coordinator still re-checks each would-be
// selection authoritatively, because a selection elsewhere can consume
// an item's last capacity unit after this partition settled. Deletions
// of such pairs happen at the same moment the sequential scan deletes
// them — when the entry surfaces as global best — so the selection
// sequence (hence plan, revenue curve, and every output bit) is
// identical to the sequential solve for every worker count and
// scheduling.

// ggPartition is one slice of the candidate frontier: a contiguous user
// range with its own two-level heap (pair IDs rebased to the
// partition), scratch arena, and settle bookkeeping. Ownership
// alternates between the coordinator and at most one worker via the
// task/done channels, which also carry the happens-before edges for the
// partition's state.
type ggPartition struct {
	candLo, candHi model.CandID
	pairLo         int32
	heap           *pqueue.TwoLevel
	entries        []pqueue.Entry
	scratch        revenue.Scratch

	// root is the settled local root: fresh, feasible at settle time, and
	// the partition's true argmax. nil or Key <= Eps means the partition
	// is exhausted. Valid only while the partition is neither dirty nor
	// settling.
	root *pqueue.Entry
	// dirty marks a partition mutated since its last settle, still owned
	// by the coordinator; settling marks one handed to the worker pool.
	// ub is the heap-top cached key captured when the partition became
	// dirty — the upper bound the coordinator's wait rule compares
	// against (cached keys bound true marginals and only decrease).
	dirty    bool
	settling bool
	ub       float64

	pops           int
	recomputations int
	settleNanos    int64
}

// settle advances the partition until its heap root is fresh and
// feasible (or the partition is exhausted), mirroring the sequential
// loop's pop policy: feasibility first — display-dead entries and
// capacity-dead pairs are deleted before any recompute — then the
// lazy-forward staleness check. It writes only partition-local state
// and reads the shared plan/evaluator/capacity state, which the
// settle/select barrier freezes while any settle is in flight, so it
// runs race-free alongside settles of other partitions.
func (p *ggPartition) settle(st *state) {
	for {
		e := p.heap.PeekMax()
		if e == nil || e.Key <= Eps {
			p.root = e
			return
		}
		p.pops++
		switch st.p.Check(e.ID) {
		case model.PlanDisplay:
			p.heap.DeleteEntry(e)
			continue
		case model.PlanCapacity:
			// The whole (user, item) pair can never become feasible again:
			// the item is at capacity and this user is not a recipient.
			p.heap.DeletePairOf(e)
			continue
		}
		fresh := int32(st.ev.GroupSizeID(e.ID))
		if e.Flag < fresh {
			// Stale root: recompute every sibling of its pair (Algorithm 1,
			// lines 15–19), stamp fresh, re-heapify.
			for _, sib := range p.heap.PairEntriesOf(e) {
				sib.Key = st.ev.MarginalGainIDScratch(sib.ID, &p.scratch)
				sib.Flag = fresh
				p.recomputations++
			}
			p.heap.FixPairOf(e)
			continue
		}
		p.root = e
		return
	}
}

// build populates the partition's heap from the shared (read-only
// during the build phase) state. Keys are the branch-free p·q kernel
// values with a zero freshness stamp — exact marginals for a cold
// (empty) state via the evaluator's empty-group fast path, and the
// standard saturation-free upper bound for warm-seeded states, matching
// the sequential initial-key policy bit for bit.
func (p *ggPartition) build(st *state, warmPrune bool) {
	in := st.in
	n := int(p.candHi - p.candLo)
	keys := make([]float64, n)
	in.UpperBoundKeys(p.candLo, p.candHi, keys)
	p.entries = make([]pqueue.Entry, 0, n)
	for k := 0; k < n; k++ {
		cid := p.candLo + model.CandID(k)
		if warmPrune && st.check(cid) != violationNone {
			continue
		}
		p.entries = append(p.entries, pqueue.Entry{
			ID:   cid,
			Pair: in.PairOf(cid) - p.pairLo,
			Key:  keys[k],
		})
		p.heap.Add(&p.entries[len(p.entries)-1])
	}
	p.heap.Build()
}

// GGreedyParallel is GGreedy solved by workers goroutines. Output is
// byte-identical to GGreedy for every worker count; workers <= 0 uses
// GOMAXPROCS.
func GGreedyParallel(in *model.Instance, workers int) Result {
	res, _ := GGreedyParallelCtx(context.Background(), in, workers, nil)
	return res
}

// GGreedyParallelCtx is GGreedyParallel with cancellation and progress
// reporting; the contract matches GGreedyCtx (partial result plus
// ctx.Err() on cancellation, checked once per selection attempt).
func GGreedyParallelCtx(ctx context.Context, in *model.Instance, workers int, progress ProgressFn) (Result, error) {
	st := newState(in)
	sel, rec, err := gGreedyParallelScan(ctx, st, workers, progress, false)
	return st.result(sel, rec), err
}

// GGreedyParallelWarm is GGreedyWarm solved by workers goroutines;
// byte-identical to GGreedyWarm for every worker count.
func GGreedyParallelWarm(in *model.Instance, warm []model.Triple, workers int) Result {
	res, _ := GGreedyParallelWarmCtx(context.Background(), in, warm, workers, nil)
	return res
}

// GGreedyParallelWarmCtx seeds sequentially (same canonical-order seed
// commit as GGreedyWarmCtx) and runs the parallel scan from the seeded
// state with upper-bound initial keys.
func GGreedyParallelWarmCtx(ctx context.Context, in *model.Instance, warm []model.Triple, workers int, progress ProgressFn) (Result, error) {
	st := newState(in)
	seeded := seedWarm(st, warm)
	sel, rec, err := gGreedyParallelScan(ctx, st, workers, progress, true)
	return st.result(seeded+sel, rec), err
}

// ggPartitions cuts the user range into at most workers contiguous
// partitions balanced by candidate count, each with its own dense heap
// sized to its pair range. Purely a function of (instance, workers):
// identical across runs.
func ggPartitions(st *state, workers int) []*ggPartition {
	in := st.in
	n := in.NumCands()
	parts := make([]*ggPartition, 0, workers)
	prevEnd := model.CandID(0)
	for w := 0; w < workers; w++ {
		// Candidate-count target for the end of partition w, snapped up
		// to the next user boundary.
		target := model.CandID((n * (w + 1)) / workers)
		end := prevEnd
		for u := 0; u < in.NumUsers; u++ {
			_, hi := in.UserCandSpan(model.UserID(u))
			if hi >= target {
				end = hi
				break
			}
		}
		if w == workers-1 {
			end = model.CandID(n)
		}
		if end <= prevEnd {
			continue
		}
		pairLo := in.PairOf(prevEnd)
		pairHi := in.PairOf(end-1) + 1
		caps := make([]int32, pairHi-pairLo)
		for pr := pairLo; pr < pairHi; pr++ {
			caps[pr-pairLo] = int32(in.PairCandCount(pr))
		}
		parts = append(parts, &ggPartition{
			candLo: prevEnd,
			candHi: end,
			pairLo: pairLo,
			heap:   pqueue.NewTwoLevelDense(int(pairHi-pairLo), caps),
		})
		prevEnd = end
	}
	return parts
}

// gGreedyParallelScan runs the full-horizon lazy-forward scan with a
// worker pool, continuing from whatever st already contains. It is the
// parallel counterpart of gGreedyWindow over [1, T].
func gGreedyParallelScan(ctx context.Context, st *state, workers int, progress ProgressFn, upperBoundInit bool) (selections, recomputations int, err error) {
	in := st.in
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > in.NumUsers {
		workers = in.NumUsers
	}
	if workers <= 1 || in.NumCands() == 0 {
		// Degenerate pool: run the sequential window inline — no
		// goroutines, no channel overhead, trivially byte-identical.
		st.stats.Workers = 1
		return gGreedyWindow(ctx, st, 1, model.TimeStep(in.T), progress, upperBoundInit)
	}

	scanStart := time.Now()
	parts := ggPartitions(st, workers)
	var buildWG sync.WaitGroup
	for _, p := range parts {
		buildWG.Add(1)
		go func(p *ggPartition) {
			defer buildWG.Done()
			p.build(st, upperBoundInit)
		}(p)
	}
	buildWG.Wait()
	for _, p := range parts {
		st.stats.Considered += len(p.entries)
	}
	st.stats.Workers = workers
	selectStart := time.Now()
	st.stats.ScanNanos += selectStart.Sub(scanStart).Nanoseconds()

	tasks := make(chan *ggPartition, len(parts))
	done := make(chan *ggPartition, len(parts))
	var wg sync.WaitGroup
	for w := 0; w < workers-1; w++ { // the coordinator is the workers-th settler
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range tasks {
				start := time.Now()
				p.settle(st)
				p.settleNanos += time.Since(start).Nanoseconds()
				done <- p
			}
		}()
	}

	// markDirty retires a mutated partition's root and records its new
	// upper bound — unless its heap top already rules it out (cached keys
	// are upper bounds, so a top <= Eps is terminal without settling,
	// exactly the sequential break test). No dispatch happens here: the
	// partition stays coordinator-owned until its bound blocks a
	// selection.
	markDirty := func(p *ggPartition) {
		p.root = nil
		p.dirty = false
		if e := p.heap.PeekMax(); e != nil && e.Key > Eps {
			p.dirty = true
			p.ub = e.Key
		}
	}
	// blocks reports whether an upper bound could still produce the
	// global argmax. The >= (rather than >) keeps exact key ties
	// deterministic: the unsettled side might surface the same key with a
	// smaller candidate ID.
	blocks := func(ub float64, best *pqueue.Entry) bool {
		if best == nil {
			return ub > Eps
		}
		return ub >= best.Key
	}
	for _, p := range parts {
		markDirty(p)
	}

	limit := maxSelections(in)
	inFlight := 0
	blockDirty := make([]*ggPartition, 0, len(parts))
	for st.len() < limit {
		if err = ctx.Err(); err != nil {
			break
		}
		var best *pqueue.Entry
		var bestPart *ggPartition
		for _, p := range parts {
			if p.dirty || p.settling || p.root == nil || p.root.Key <= Eps {
				continue
			}
			if best == nil || p.root.Beats(best) {
				best, bestPart = p.root, p
			}
		}
		blockDirty = blockDirty[:0]
		for _, p := range parts {
			if p.dirty && blocks(p.ub, best) {
				blockDirty = append(blockDirty, p)
			}
		}
		if len(blockDirty) > 0 {
			// Fan every blocker but the last out to the pool, then settle
			// the last inline: with one blocker (the steady state) this is
			// synchronization-free; with several, the pool overlaps them on
			// spare cores while the coordinator works too. The split is a
			// deterministic function of the selection sequence, and settle
			// results never depend on which goroutine runs them.
			for _, p := range blockDirty[:len(blockDirty)-1] {
				p.dirty = false
				p.settling = true
				inFlight++
				tasks <- p
			}
			p := blockDirty[len(blockDirty)-1]
			p.dirty = false
			start := time.Now()
			p.settle(st)
			p.settleNanos += time.Since(start).Nanoseconds()
			continue
		}
		if inFlight > 0 {
			// The settle/select barrier: in-flight settles read the shared
			// plan, evaluator, and capacity state, so drain them all before
			// mutating any of it — whether by selection or by deletion.
			p := <-done
			p.settling = false
			inFlight--
			continue
		}
		if best == nil {
			break // every partition exhausted or below Eps
		}
		// Authoritative feasibility check. Display state cannot have
		// changed since the settle (only selections in this partition
		// touch it, and each one re-dirties it), but item capacity is
		// global: a selection elsewhere may have consumed the last unit.
		// Both deletions happen exactly when the sequential scan would
		// perform them — at the moment the entry surfaces as global best.
		switch st.check(best.ID) {
		case violationDisplay:
			bestPart.heap.DeleteEntry(best)
			markDirty(bestPart)
			continue
		case violationCapacity:
			bestPart.heap.DeletePairOf(best)
			markDirty(bestPart)
			continue
		}
		st.add(best.ID)
		selections++
		bestPart.heap.DeleteMax()
		markDirty(bestPart)
		if progress != nil {
			progress(Progress{Done: st.len(), Total: limit, Best: st.ev.Total()})
		}
	}

	close(tasks)
	wg.Wait() // done is buffered for every partition; workers never block
	st.stats.WorkerSettleNanos = make([]int64, len(parts))
	for i, p := range parts {
		st.stats.HeapPops += p.pops
		recomputations += p.recomputations
		st.stats.WorkerSettleNanos[i] = p.settleNanos
	}
	st.stats.HeapPops += selections
	st.stats.SelectNanos += time.Since(selectStart).Nanoseconds()
	return selections, recomputations, err
}
