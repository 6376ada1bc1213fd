package model

import (
	"fmt"
	"math/bits"
)

// PlanViolation classifies why a candidate cannot be added to a Plan.
type PlanViolation int

const (
	// PlanOK: the candidate can be added without violating a constraint.
	PlanOK PlanViolation = iota
	// PlanDisplay: the candidate is already chosen, or its (user, time)
	// display slot is full.
	PlanDisplay
	// PlanCapacity: the item is at capacity and this user is not yet a
	// recipient. Permanent for growing plans.
	PlanCapacity
)

// Plan is the flat, candidate-indexed strategy representation: a bitset
// over CandID plus incrementally maintained display counts per (user,
// time) slot and distinct-user counts per item. Add, Remove, Contains,
// and Check are O(1) array operations with zero per-op allocation — the
// hot-path replacement for the map-based Strategy, which survives only
// as a conversion adapter (see Strategy method).
//
// A Plan is bound to the Instance that created it (NewPlan) and is only
// meaningful for candidates of that instance. Plans are not safe for
// concurrent mutation.
type Plan struct {
	in   *Instance
	bits []uint64
	size int

	slotCount []int32 // chosen candidates per (user, time) display slot
	pairCount []int32 // chosen candidates per (user, item) pair
	itemUsers []int32 // distinct recipient users per item

	slotOver int // slots currently above the display limit K
	itemOver int // items currently above their capacity
}

// NewPlan returns an empty plan over the instance. The instance must be
// indexed (FinishCandidates).
func (in *Instance) NewPlan() *Plan {
	if in.ix == nil {
		panic("model: NewPlan before FinishCandidates")
	}
	n := len(in.ix.flat)
	return &Plan{
		in:        in,
		bits:      make([]uint64, (n+63)/64),
		slotCount: make([]int32, len(in.ix.slotTime)),
		pairCount: make([]int32, in.ix.numPairs),
		itemUsers: make([]int32, in.NumItems()),
	}
}

// Instance returns the instance the plan indexes into.
func (p *Plan) Instance() *Instance { return p.in }

// Len returns the number of chosen candidates.
func (p *Plan) Len() int { return p.size }

// Contains reports whether candidate id is chosen.
func (p *Plan) Contains(id CandID) bool {
	return p.bits[id>>6]&(1<<(uint(id)&63)) != 0
}

// ItemUsers returns the number of distinct users holding a chosen
// candidate of item i — the count Check compares against the capacity.
func (p *Plan) ItemUsers(i ItemID) int { return int(p.itemUsers[i]) }

// Check classifies whether candidate id can be added: PlanOK when it
// fits, PlanDisplay when already chosen or the display slot is full,
// PlanCapacity when the item is at capacity with this user not yet a
// recipient. A repeat recommendation to an existing recipient consumes
// no new capacity, mirroring the distinct-user capacity semantics.
func (p *Plan) Check(id CandID) PlanViolation {
	if p.Contains(id) {
		return PlanDisplay
	}
	ix := p.in.ix
	if int(p.slotCount[ix.slotOf[id]]) >= p.in.K {
		return PlanDisplay
	}
	pair := ix.pairOf[id]
	if p.pairCount[pair] > 0 {
		return PlanOK // existing recipient: no new capacity use
	}
	item := ix.pairItem[pair]
	if int(p.itemUsers[item]) >= p.in.Capacity(item) {
		return PlanCapacity
	}
	return PlanOK
}

// Add inserts candidate id; it reports whether the plan changed (false
// when already present). Constraints are not enforced — use Check first
// on growing plans, or Valid afterwards; the violation counters track
// any excess so Valid stays O(1).
func (p *Plan) Add(id CandID) bool {
	w, m := id>>6, uint64(1)<<(uint(id)&63)
	if p.bits[w]&m != 0 {
		return false
	}
	p.bits[w] |= m
	p.size++
	ix := p.in.ix
	s := ix.slotOf[id]
	p.slotCount[s]++
	if int(p.slotCount[s]) == p.in.K+1 {
		p.slotOver++
	}
	pair := ix.pairOf[id]
	p.pairCount[pair]++
	if p.pairCount[pair] == 1 {
		item := ix.pairItem[pair]
		p.itemUsers[item]++
		if int(p.itemUsers[item]) == p.in.Capacity(item)+1 {
			p.itemOver++
		}
	}
	return true
}

// Remove deletes candidate id; it reports whether the plan changed.
func (p *Plan) Remove(id CandID) bool {
	w, m := id>>6, uint64(1)<<(uint(id)&63)
	if p.bits[w]&m == 0 {
		return false
	}
	p.bits[w] &^= m
	p.size--
	ix := p.in.ix
	s := ix.slotOf[id]
	if int(p.slotCount[s]) == p.in.K+1 {
		p.slotOver--
	}
	p.slotCount[s]--
	pair := ix.pairOf[id]
	p.pairCount[pair]--
	if p.pairCount[pair] == 0 {
		item := ix.pairItem[pair]
		if int(p.itemUsers[item]) == p.in.Capacity(item)+1 {
			p.itemOver--
		}
		p.itemUsers[item]--
	}
	return true
}

// Valid reports whether the plan satisfies the display and capacity
// constraints. The check is O(1): violation counters are maintained
// incrementally by Add and Remove. The error, when non-nil, names one
// offending triple (found by a scan — the invalid path is cold).
func (p *Plan) Valid() error {
	if p.slotOver == 0 && p.itemOver == 0 {
		return nil
	}
	ix := p.in.ix
	var bad CandID
	found := false
	p.Each(func(id CandID) bool {
		s := ix.slotOf[id]
		if int(p.slotCount[s]) > p.in.K {
			bad, found = id, true
			return false
		}
		item := ix.pairItem[ix.pairOf[id]]
		if int(p.itemUsers[item]) > p.in.Capacity(item) {
			bad, found = id, true
			return false
		}
		return true
	})
	if !found {
		return fmt.Errorf("model: plan violation counters inconsistent (slots=%d items=%d)", p.slotOver, p.itemOver)
	}
	z := ix.flat[bad].Triple
	if int(p.slotCount[ix.slotOf[bad]]) > p.in.K {
		return &ValidationError{z, fmt.Sprintf("display limit %d exceeded for user %d at t=%d", p.in.K, z.U, z.T)}
	}
	return &ValidationError{z, fmt.Sprintf("capacity %d exceeded for item %d", p.in.Capacity(z.I), z.I)}
}

// Each calls fn for every chosen candidate in ascending CandID order —
// which is canonical (user, item, time) order — stopping early when fn
// returns false.
func (p *Plan) Each(fn func(id CandID) bool) {
	for w, word := range p.bits {
		for word != 0 {
			id := CandID(w<<6 + bits.TrailingZeros64(word))
			if !fn(id) {
				return
			}
			word &= word - 1
		}
	}
}

// Triples returns the chosen triples in canonical (user, item, time)
// order. No sorting happens: ascending CandID order is canonical.
func (p *Plan) Triples() []Triple {
	out := make([]Triple, 0, p.size)
	p.Each(func(id CandID) bool {
		out = append(out, p.in.ix.flat[id].Triple)
		return true
	})
	return out
}

// Strategy materializes the plan as a map-based Strategy with its
// canonical order pre-cached, so a following Triples call on the
// strategy costs a copy, not a sort. The returned strategy is
// independent of the plan.
func (p *Plan) Strategy() *Strategy {
	s := &Strategy{set: make(map[Triple]struct{}, p.size), sorted: p.Triples()}
	for _, z := range s.sorted {
		s.set[z] = struct{}{}
	}
	return s
}

// Clone returns a deep copy of the plan (bound to the same instance).
func (p *Plan) Clone() *Plan {
	c := &Plan{
		in:        p.in,
		bits:      append([]uint64(nil), p.bits...),
		size:      p.size,
		slotCount: append([]int32(nil), p.slotCount...),
		pairCount: append([]int32(nil), p.pairCount...),
		itemUsers: append([]int32(nil), p.itemUsers...),
		slotOver:  p.slotOver,
		itemOver:  p.itemOver,
	}
	return c
}

// Reset empties the plan in O(allocated) without reallocating.
func (p *Plan) Reset() {
	for i := range p.bits {
		p.bits[i] = 0
	}
	for i := range p.slotCount {
		p.slotCount[i] = 0
	}
	for i := range p.pairCount {
		p.pairCount[i] = 0
	}
	for i := range p.itemUsers {
		p.itemUsers[i] = 0
	}
	p.size, p.slotOver, p.itemOver = 0, 0, 0
}

// PlanOf converts a Strategy to a Plan; ok is false when some triple of
// the strategy is not a candidate of the instance (such strategies —
// e.g. the TopRA baseline's q=0 repeats — have no flat representation).
func (in *Instance) PlanOf(s *Strategy) (*Plan, bool) {
	if in.ix == nil {
		return nil, false
	}
	p := in.NewPlan()
	for z := range s.set {
		id, ok := in.CandIDOf(z)
		if !ok {
			return nil, false
		}
		p.Add(id)
	}
	return p, true
}

// BaseIDs lists fp's candidates, ascending, as CandIDs of in, the base
// instance fp's instance derives from. A plan over in, over a clone of
// it (an incremental session's instance), or over a residual that
// dropped no candidate already lives in in's CandID space. Any other
// residual keeps a subsequence of each user's candidates in the same
// canonical order, so one merge walk per user maps it.
func (in *Instance) BaseIDs(fp *Plan) []CandID {
	x := fp.Instance()
	ids := make([]CandID, 0, fp.Len())
	if x.NumCands() == in.NumCands() {
		fp.Each(func(id CandID) bool {
			ids = append(ids, id)
			return true
		})
		return ids
	}
	prev, j := UserID(-1), CandID(0)
	fp.Each(func(id CandID) bool {
		c := x.CandAt(id)
		if c.U != prev {
			prev = c.U
			j, _ = in.UserCandSpan(c.U)
		}
		for gc := in.CandAt(j); gc.I != c.I || gc.T != c.T; gc = in.CandAt(j) {
			j++
		}
		ids = append(ids, j)
		j++
		return true
	})
	return ids
}
