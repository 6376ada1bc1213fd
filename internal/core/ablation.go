package core

import (
	"repro/internal/model"
	"repro/internal/pqueue"
)

// This file holds ablation variants of Global Greedy that isolate the
// two implementation-level optimizations of Algorithm 1 — the two-level
// heap structure and the lazy-forward scheme — so benchmarks can
// quantify what each buys (DESIGN.md's ablation index).

// GGreedySingleHeap is Global Greedy with ONE giant max-heap over all
// candidate triples instead of the two-level structure; lazy forward is
// still used. The paper argues the giant heap suffers larger Decrease-Key
// overhead because updated keys traverse a taller tree (§5.1).
func GGreedySingleHeap(in *model.Instance) Result {
	st := newState(in)
	var heap pqueue.Max
	// Track live entries per (user, class) revenue group so stale-root
	// recomputation can refresh exactly the affected group, mirroring
	// Algorithm 1's per-pair refresh at single-heap granularity. Groups
	// are the instance's dense group IDs.
	flat := in.Candidates()
	entries := make([]pqueue.Entry, len(flat))
	groups := make([][]*pqueue.Entry, in.NumGroups())
	for id := range flat {
		c := &flat[id]
		cid := model.CandID(id)
		entries[id] = pqueue.Entry{
			ID:  cid,
			Key: in.Price(c.I, c.T) * c.Q,
		}
		heap.Push(&entries[id])
		g := in.GroupOf(cid)
		groups[g] = append(groups[g], &entries[id])
	}

	limit := maxSelections(in)
	selections, recomputations := 0, 0
	for st.len() < limit && !heap.Empty() {
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
			for _, sib := range groups[in.GroupOf(e.ID)] {
				if st.p.Contains(sib.ID) {
					continue
				}
				sib.Key = st.ev.MarginalGainID(sib.ID)
				sib.Flag = fresh
				recomputations++
				heap.Fix(sib)
			}
			continue
		}
		st.add(e.ID)
		selections++
		heap.Pop()
	}
	return st.result(selections, recomputations)
}

// GGreedyEager is Global Greedy without lazy forward: after every
// selection, the marginal revenues of all triples sharing the selected
// triple's (user, class) group are recomputed immediately. It produces
// the same selection sequence as GGreedy whenever stale keys are true
// upper bounds (the submodular direction), and serves as the baseline
// for measuring lazy forward's savings.
func GGreedyEager(in *model.Instance) Result {
	st := newState(in)
	heap := pqueue.NewTwoLevelDense(in.NumPairs(), pairCaps(in))
	flat := in.Candidates()
	entries := make([]pqueue.Entry, len(flat))
	groups := make([][]*pqueue.Entry, in.NumGroups())
	for id := range flat {
		c := &flat[id]
		cid := model.CandID(id)
		entries[id] = pqueue.Entry{
			ID:   cid,
			Pair: in.PairOf(cid),
			Key:  in.Price(c.I, c.T) * c.Q,
		}
		heap.Add(&entries[id])
		g := in.GroupOf(cid)
		groups[g] = append(groups[g], &entries[id])
	}
	heap.Build()

	limit := maxSelections(in)
	selections, recomputations := 0, 0
	for st.len() < limit && !heap.Empty() {
		e := heap.PeekMax()
		if e == nil || e.Key <= Eps {
			break
		}
		switch st.check(e.ID) {
		case violationDisplay:
			heap.DeleteEntry(e)
			continue
		case violationCapacity:
			heap.DeletePairOf(e)
			continue
		}
		st.add(e.ID)
		selections++
		heap.DeleteMax()
		// Eager refresh: immediately recompute every sibling of the
		// selected triple's group, across all of the user's lower heaps.
		touched := make(map[int32]*pqueue.Entry)
		for _, sib := range groups[in.GroupOf(e.ID)] {
			if st.p.Contains(sib.ID) {
				continue
			}
			sib.Key = st.ev.MarginalGainID(sib.ID)
			recomputations++
			touched[sib.Pair] = sib
		}
		for _, sib := range touched {
			heap.FixPairOf(sib)
		}
	}
	return st.result(selections, recomputations)
}
