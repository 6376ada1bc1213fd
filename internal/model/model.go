// Package model defines the core data types of the RevMax problem:
// users, items, competition classes, the time horizon, recommendation
// triples, strategies, and problem instances (Lu et al., VLDB 2014, §3.1).
package model

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// UserID identifies a user. Users are dense integers in [0, NumUsers).
type UserID int32

// ItemID identifies an item. Items are dense integers in [0, NumItems).
type ItemID int32

// ClassID identifies a competition class. Items in the same class are
// mutually exclusive for adoption within the horizon (§3.1).
type ClassID int32

// TimeStep is a 1-based discrete time step in the horizon [1, T].
type TimeStep int32

// Triple is one recommendation: item I is suggested to user U at time T.
type Triple struct {
	U UserID
	I ItemID
	T TimeStep
}

func (z Triple) String() string {
	return fmt.Sprintf("(u%d,i%d,t%d)", z.U, z.I, z.T)
}

// Less orders triples by (user, item, time); used for canonical ordering
// in tests and deterministic iteration.
func (z Triple) Less(o Triple) bool {
	if z.U != o.U {
		return z.U < o.U
	}
	if z.I != o.I {
		return z.I < o.I
	}
	return z.T < o.T
}

// Candidate couples a triple with its primitive adoption probability.
// Only candidates with Q > 0 are considered by any RevMax algorithm;
// the number of candidates is the true input size (§6).
type Candidate struct {
	Triple
	Q float64 // primitive adoption probability q(u,i,t) in (0,1]
}

// Item holds the static per-item parameters of an instance.
type Item struct {
	Class    ClassID
	Beta     float64 // saturation factor βᵢ ∈ [0,1]
	Capacity int     // capacity qᵢ: max distinct users ever recommended i
}

// Instance is a complete REVMAX problem instance.
//
// Prices are stored densely: Price(i, t) for every item and time step.
// Primitive adoption probabilities are sparse: most (u,i,t) triples have
// q = 0 and are never candidates.
type Instance struct {
	NumUsers int
	T        int // horizon length; time steps are 1..T
	K        int // display constraint: ≤ K items per user per time step

	Items []Item // indexed by ItemID

	// prices[i][t-1] is p(i, t).
	prices [][]float64

	// cands holds, per user, that user's candidates sorted by (item, time).
	// After FinishCandidates each per-user slice aliases the flat index's
	// candidate array.
	cands [][]Candidate

	// classItems[c] lists the items of class c (for diagnostics).
	classItems map[ClassID][]ItemID

	// ix is the flat candidate index (CandID space); built by
	// FinishCandidates, shared by clones that preserve the candidate set
	// and the item→class assignment.
	ix *index

	// checkPool recycles CheckValid scratch state so validation is
	// allocation-free after warmup. Lazily populated; safe for concurrent
	// CheckValid calls.
	checkPool sync.Pool
}

// NewInstance allocates an instance with the given shape. Prices default
// to zero and no candidates; use SetPrice and AddCandidate to populate.
func NewInstance(numUsers, numItems, horizon, display int) *Instance {
	in := &Instance{
		NumUsers:   numUsers,
		T:          horizon,
		K:          display,
		Items:      make([]Item, numItems),
		prices:     make([][]float64, numItems),
		cands:      make([][]Candidate, numUsers),
		classItems: make(map[ClassID][]ItemID),
	}
	for i := range in.prices {
		in.prices[i] = make([]float64, horizon)
	}
	return in
}

// NumItems reports the number of items.
func (in *Instance) NumItems() int { return len(in.Items) }

// SetItem sets the static parameters of item i.
func (in *Instance) SetItem(i ItemID, class ClassID, beta float64, capacity int) {
	in.Items[i] = Item{Class: class, Beta: beta, Capacity: capacity}
}

// Class returns the competition class of item i.
func (in *Instance) Class(i ItemID) ClassID { return in.Items[i].Class }

// Beta returns the saturation factor of item i.
func (in *Instance) Beta(i ItemID) float64 { return in.Items[i].Beta }

// Capacity returns the capacity of item i.
func (in *Instance) Capacity(i ItemID) int { return in.Items[i].Capacity }

// SetPrice sets p(i, t).
func (in *Instance) SetPrice(i ItemID, t TimeStep, p float64) {
	in.prices[i][t-1] = p
}

// Price returns p(i, t).
func (in *Instance) Price(i ItemID, t TimeStep) float64 {
	return in.prices[i][t-1]
}

// MinPrice and MaxPrice bound every price ScalePrice writes. Rescales
// compose multiplicatively, so without a bound a run of them underflows
// a price to zero or overflows it to +Inf. At MaxPrice, revenue stays
// finite: it sums at most one price-weighted probability (≤ 1) per
// candidate, and fewer than 2^31 candidates times 10^12 is below 10^22.
const (
	MinPrice = 1e-9
	MaxPrice = 1e12
)

// ScalePrice multiplies item i's price by f at every step in [from, T]
// (from < 1 counts as 1), saturating each positive product into
// [MinPrice, MaxPrice]; a zero product (a free item, or f = 0) stays
// zero. It is the one rescale serving engines, incremental sessions and
// cluster coordinators apply, so their price tables stay bit-identical
// and a replayed rescale lands where the live one did.
func (in *Instance) ScalePrice(i ItemID, from TimeStep, f float64) {
	for t := max(from, 1); int(t) <= in.T; t++ {
		p := in.Price(i, t) * f
		if p > 0 {
			p = min(max(p, MinPrice), MaxPrice)
		}
		in.SetPrice(i, t, p)
	}
}

// AddCandidate registers a candidate triple with primitive adoption
// probability q. Candidates with q <= 0 are ignored, mirroring the paper:
// zero-probability triples are never part of the input.
func (in *Instance) AddCandidate(u UserID, i ItemID, t TimeStep, q float64) {
	if q <= 0 {
		return
	}
	if q > 1 {
		q = 1
	}
	in.cands[u] = append(in.cands[u], Candidate{Triple{u, i, t}, q})
}

// FinishCandidates sorts each user's candidate list by (item, time),
// rebuilds the class index, and builds the flat CandID index (dense
// candidate IDs plus the per-user / per-item / per-(user,time) inverted
// indexes the Plan representation and the greedy hot paths run on). It
// must be called after the last AddCandidate and before handing the
// instance to an algorithm; call it again if candidates or item classes
// change afterwards.
func (in *Instance) FinishCandidates() {
	for u := range in.cands {
		cs := in.cands[u]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Triple.Less(cs[b].Triple) })
	}
	in.classItems = make(map[ClassID][]ItemID)
	for i := range in.Items {
		c := in.Items[i].Class
		in.classItems[c] = append(in.classItems[c], ItemID(i))
	}
	in.buildIndex()
}

// UserCandidates returns user u's candidates (sorted by item, then time).
// The returned slice is owned by the instance; callers must not mutate it.
func (in *Instance) UserCandidates(u UserID) []Candidate { return in.cands[u] }

// NumCandidates returns the total number of candidates with positive q —
// the true input size that governs algorithm runtime (§6, Table 1).
func (in *Instance) NumCandidates() int {
	n := 0
	for u := range in.cands {
		n += len(in.cands[u])
	}
	return n
}

// Q returns the primitive adoption probability q(u,i,t), or 0 when the
// triple is not a candidate. It binary-searches the user's sorted list.
func (in *Instance) Q(u UserID, i ItemID, t TimeStep) float64 {
	cs := in.cands[u]
	lo, hi := 0, len(cs)
	want := Triple{u, i, t}
	for lo < hi {
		mid := (lo + hi) / 2
		if cs[mid].Triple.Less(want) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(cs) && cs[lo].Triple == want {
		return cs[lo].Q
	}
	return 0
}

// ClassItems returns the items in class c (empty if the class is unknown).
func (in *Instance) ClassItems(c ClassID) []ItemID { return in.classItems[c] }

// NumClasses returns the number of distinct competition classes.
func (in *Instance) NumClasses() int { return len(in.classItems) }

// ClassSizeStats reports the largest, smallest, and median class sizes,
// matching the rows of Table 1.
func (in *Instance) ClassSizeStats() (largest, smallest, median int) {
	if len(in.classItems) == 0 {
		return 0, 0, 0
	}
	sizes := make([]int, 0, len(in.classItems))
	for _, items := range in.classItems {
		sizes = append(sizes, len(items))
	}
	sort.Ints(sizes)
	return sizes[len(sizes)-1], sizes[0], sizes[len(sizes)/2]
}

// Validate checks structural well-formedness of the instance.
func (in *Instance) Validate() error {
	if in.NumUsers <= 0 || len(in.Items) == 0 {
		return errors.New("model: instance needs at least one user and one item")
	}
	if in.T <= 0 {
		return errors.New("model: horizon must be positive")
	}
	if in.K <= 0 {
		return errors.New("model: display constraint must be positive")
	}
	for i, it := range in.Items {
		if it.Beta < 0 || it.Beta > 1 {
			return fmt.Errorf("model: item %d has beta %v outside [0,1]", i, it.Beta)
		}
		if it.Capacity < 0 {
			return fmt.Errorf("model: item %d has negative capacity", i)
		}
	}
	for u := range in.cands {
		for _, c := range in.cands[u] {
			if c.U != UserID(u) {
				return fmt.Errorf("model: candidate %v filed under user %d", c.Triple, u)
			}
			if int(c.I) < 0 || int(c.I) >= len(in.Items) {
				return fmt.Errorf("model: candidate %v references unknown item", c.Triple)
			}
			if c.T < 1 || int(c.T) > in.T {
				return fmt.Errorf("model: candidate %v outside horizon [1,%d]", c.Triple, in.T)
			}
			if c.Q <= 0 || c.Q > 1 {
				return fmt.Errorf("model: candidate %v has q=%v outside (0,1]", c.Triple, c.Q)
			}
		}
	}
	return nil
}

// Strategy is a set of recommendation triples. The zero value is ready to
// use. Strategies are not safe for concurrent mutation.
//
// Strategy is the compatibility representation: algorithm inner loops
// now run on the flat, candidate-indexed Plan and convert to a Strategy
// at the boundary (Plan.Strategy), so downstream consumers — serving
// snapshots, codecs, metrics — keep working unchanged.
type Strategy struct {
	set map[Triple]struct{}
	// sorted caches the canonical triple order; nil when absent. It is
	// written only on mutation paths (Add/Remove clear it) and at
	// construction (Plan.Strategy pre-populates it), never by Triples:
	// published strategies are read concurrently (serving snapshots,
	// stats), so the read path must stay pure.
	sorted []Triple
}

// NewStrategy returns an empty strategy.
func NewStrategy() *Strategy { return &Strategy{set: make(map[Triple]struct{})} }

// StrategyOf builds a strategy from explicit triples (useful in tests).
func StrategyOf(ts ...Triple) *Strategy {
	s := NewStrategy()
	for _, z := range ts {
		s.Add(z)
	}
	return s
}

// Add inserts a triple; it is a no-op if already present.
func (s *Strategy) Add(z Triple) {
	if s.set == nil {
		s.set = make(map[Triple]struct{})
	}
	if _, ok := s.set[z]; ok {
		return
	}
	s.set[z] = struct{}{}
	s.sorted = nil
}

// Remove deletes a triple; it is a no-op if absent.
func (s *Strategy) Remove(z Triple) {
	if _, ok := s.set[z]; ok {
		delete(s.set, z)
		s.sorted = nil
	}
}

// Contains reports whether z is in the strategy.
func (s *Strategy) Contains(z Triple) bool {
	_, ok := s.set[z]
	return ok
}

// Len returns the number of triples.
func (s *Strategy) Len() int { return len(s.set) }

// Triples returns the triples in canonical (user, item, time) order.
// Callers receive a fresh copy they may mutate freely. Strategies built
// from a Plan carry their canonical order pre-cached, making this a
// copy rather than a sort; hand-built strategies sort on every call
// (caching here would race concurrent readers of a published strategy).
func (s *Strategy) Triples() []Triple {
	if s.sorted != nil {
		return append([]Triple(nil), s.sorted...)
	}
	out := make([]Triple, 0, len(s.set))
	for z := range s.set {
		out = append(out, z)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Less(out[b]) })
	return out
}

// Clone returns a deep copy of the strategy.
func (s *Strategy) Clone() *Strategy {
	c := &Strategy{set: make(map[Triple]struct{}, len(s.set))}
	for z := range s.set {
		c.set[z] = struct{}{}
	}
	return c
}

// ValidationError describes a constraint violation found by CheckValid.
type ValidationError struct {
	Triple Triple
	Reason string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("model: invalid strategy at %v: %s", e.Triple, e.Reason)
}

// checkScratch is pooled CheckValid state: dense counters over the
// instance's slot/pair/item spaces plus touch lists so resetting costs
// O(strategy), not O(index).
type checkScratch struct {
	slotCount    []int32
	pairCount    []int32
	itemUsers    []int32
	touchedSlots []int32
	touchedPairs []int32
	touchedItems []int32
}

func (sc *checkScratch) reset() {
	for _, s := range sc.touchedSlots {
		sc.slotCount[s] = 0
	}
	for _, p := range sc.touchedPairs {
		sc.pairCount[p] = 0
	}
	for _, i := range sc.touchedItems {
		sc.itemUsers[i] = 0
	}
	sc.touchedSlots = sc.touchedSlots[:0]
	sc.touchedPairs = sc.touchedPairs[:0]
	sc.touchedItems = sc.touchedItems[:0]
}

// CheckValid verifies the display constraint (≤ K items per user per time
// step) and the capacity constraint (≤ qᵢ distinct users per item, over
// the whole horizon) for strategy s on instance in (§3.1, "valid").
//
// When every triple of s is a candidate of the (indexed) instance — true
// for every algorithm output except TopRA's q=0 repeats — the check runs
// over the dense CandID counters with zero allocation after pool warmup.
// Strategies containing non-candidate triples fall back to the map-based
// path.
func (in *Instance) CheckValid(s *Strategy) error {
	if in.ix == nil {
		return in.checkValidSlow(s)
	}
	sc, _ := in.checkPool.Get().(*checkScratch)
	if sc == nil {
		sc = &checkScratch{
			slotCount: make([]int32, len(in.ix.slotTime)),
			pairCount: make([]int32, in.ix.numPairs),
			itemUsers: make([]int32, in.NumItems()),
		}
	}
	err, ok := in.checkValidDense(s, sc)
	sc.reset()
	in.checkPool.Put(sc)
	if !ok {
		return in.checkValidSlow(s)
	}
	return err
}

// checkValidDense runs the allocation-free validation; ok is false when
// some triple is not a candidate, in which case the caller falls back.
func (in *Instance) checkValidDense(s *Strategy, sc *checkScratch) (error, bool) {
	ix := in.ix
	for z := range s.set {
		id, found := in.CandIDOf(z)
		if !found {
			return nil, false
		}
		slot := ix.slotOf[id]
		if sc.slotCount[slot] == 0 {
			sc.touchedSlots = append(sc.touchedSlots, slot)
		}
		sc.slotCount[slot]++
		if int(sc.slotCount[slot]) > in.K {
			return &ValidationError{z, fmt.Sprintf("display limit %d exceeded for user %d at t=%d", in.K, z.U, z.T)}, true
		}
		pair := ix.pairOf[id]
		sc.pairCount[pair]++
		if sc.pairCount[pair] == 1 {
			sc.touchedPairs = append(sc.touchedPairs, pair)
			item := ix.pairItem[pair]
			if sc.itemUsers[item] == 0 {
				sc.touchedItems = append(sc.touchedItems, int32(item))
			}
			sc.itemUsers[item]++
			if int(sc.itemUsers[item]) > in.Capacity(item) {
				return &ValidationError{z, fmt.Sprintf("capacity %d exceeded for item %d", in.Capacity(z.I), z.I)}, true
			}
		}
	}
	return nil, true
}

// checkValidSlow is the pre-index validation path, kept for strategies
// containing non-candidate triples and unindexed instances.
func (in *Instance) checkValidSlow(s *Strategy) error {
	display := make(map[[2]int32]int)
	users := make(map[ItemID]map[UserID]struct{})
	for z := range s.set {
		key := [2]int32{int32(z.U), int32(z.T)}
		display[key]++
		if display[key] > in.K {
			return &ValidationError{z, fmt.Sprintf("display limit %d exceeded for user %d at t=%d", in.K, z.U, z.T)}
		}
		m := users[z.I]
		if m == nil {
			m = make(map[UserID]struct{})
			users[z.I] = m
		}
		m[z.U] = struct{}{}
		if len(m) > in.Capacity(z.I) {
			return &ValidationError{z, fmt.Sprintf("capacity %d exceeded for item %d", in.Capacity(z.I), z.I)}
		}
	}
	return nil
}
