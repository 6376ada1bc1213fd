package core

// This file pins the pre-flat-plan implementation of the greedy
// algorithms: a self-contained copy of the original map-based strategy
// state and (user, class)-keyed incremental evaluator, exactly as they
// existed before the dense CandID/Plan refactor. The equivalence test
// below runs both implementations on random instances and requires
// byte-identical outputs — strategies, revenue bits, and operation
// counts — so any drift introduced by the flat representation is caught
// here, independent of the solver-level golden files.

import (
	"math"
	"sort"
	"testing"

	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/testgen"
)

// --- legacy revenue evaluator (map-based) --------------------------------

type lgGroupKey struct {
	u model.UserID
	c model.ClassID
}

type lgEntry struct {
	z model.Triple
	q float64
}

type lgGroup struct {
	entries []lgEntry
	revenue float64
}

func (g *lgGroup) insert(e lgEntry) {
	i := sort.Search(len(g.entries), func(k int) bool {
		ek := g.entries[k]
		if ek.z.T != e.z.T {
			return ek.z.T > e.z.T
		}
		return ek.z.I >= e.z.I
	})
	g.entries = append(g.entries, lgEntry{})
	copy(g.entries[i+1:], g.entries[i:])
	g.entries[i] = e
}

func lgMemoryOf(entries []lgEntry, t model.TimeStep) float64 {
	m := 0.0
	for _, e := range entries {
		if e.z.T < t {
			m += 1 / float64(t-e.z.T)
		}
	}
	return m
}

func lgDynamicProb(in *model.Instance, entries []lgEntry, idx int) float64 {
	e := entries[idx]
	t := e.z.T
	beta := in.Beta(e.z.I)
	mem := lgMemoryOf(entries, t)
	p := e.q
	if mem > 0 {
		p *= math.Pow(beta, mem)
	}
	for _, o := range entries {
		if o.z == e.z {
			continue
		}
		switch {
		case o.z.T < t:
			p *= 1 - o.q
		case o.z.T == t && o.z.I != e.z.I:
			p *= 1 - o.q
		}
	}
	return p
}

func lgGroupRevenue(in *model.Instance, entries []lgEntry) float64 {
	rev := 0.0
	for idx, e := range entries {
		rev += in.Price(e.z.I, e.z.T) * lgDynamicProb(in, entries, idx)
	}
	return rev
}

type lgEvaluator struct {
	in     *model.Instance
	groups map[lgGroupKey]*lgGroup
	total  float64
	size   int
}

func newLgEvaluator(in *model.Instance) *lgEvaluator {
	return &lgEvaluator{in: in, groups: make(map[lgGroupKey]*lgGroup)}
}

func (ev *lgEvaluator) groupSize(u model.UserID, c model.ClassID) int {
	g := ev.groups[lgGroupKey{u, c}]
	if g == nil {
		return 0
	}
	return len(g.entries)
}

func (ev *lgEvaluator) marginalGain(z model.Triple, q float64) float64 {
	key := lgGroupKey{z.U, ev.in.Class(z.I)}
	g := ev.groups[key]
	if g == nil {
		return ev.in.Price(z.I, z.T) * q
	}
	tmp := make([]lgEntry, len(g.entries), len(g.entries)+1)
	copy(tmp, g.entries)
	tmp = append(tmp, lgEntry{z, q})
	return lgGroupRevenue(ev.in, tmp) - g.revenue
}

func (ev *lgEvaluator) add(z model.Triple, q float64) float64 {
	key := lgGroupKey{z.U, ev.in.Class(z.I)}
	g := ev.groups[key]
	if g == nil {
		g = &lgGroup{}
		ev.groups[key] = g
	}
	old := g.revenue
	g.insert(lgEntry{z, q})
	g.revenue = lgGroupRevenue(ev.in, g.entries)
	delta := g.revenue - old
	ev.total += delta
	ev.size++
	return delta
}

// --- legacy greedy state (map-based strategy + constraint counters) ------

type lgDisplayKey struct {
	u model.UserID
	t model.TimeStep
}

type lgState struct {
	in        *model.Instance
	ev        *lgEvaluator
	set       map[model.Triple]struct{}
	display   map[lgDisplayKey]int
	itemUsers []map[model.UserID]struct{}
	curve     []float64
}

func newLgState(in *model.Instance) *lgState {
	return &lgState{
		in:        in,
		ev:        newLgEvaluator(in),
		set:       make(map[model.Triple]struct{}),
		display:   make(map[lgDisplayKey]int),
		itemUsers: make([]map[model.UserID]struct{}, in.NumItems()),
	}
}

func (st *lgState) check(z model.Triple) violation {
	if _, ok := st.set[z]; ok {
		return violationDisplay
	}
	if st.display[lgDisplayKey{z.U, z.T}] >= st.in.K {
		return violationDisplay
	}
	users := st.itemUsers[z.I]
	if users != nil {
		if _, ok := users[z.U]; ok {
			return violationNone
		}
	}
	if len(users) >= st.in.Capacity(z.I) {
		return violationCapacity
	}
	return violationNone
}

func (st *lgState) add(z model.Triple, q float64) {
	st.set[z] = struct{}{}
	st.display[lgDisplayKey{z.U, z.T}]++
	users := st.itemUsers[z.I]
	if users == nil {
		users = make(map[model.UserID]struct{})
		st.itemUsers[z.I] = users
	}
	users[z.U] = struct{}{}
	st.ev.add(z, q)
	st.curve = append(st.curve, st.ev.total)
}

// lgResult mirrors Result with the strategy flattened to canonical order.
type lgResult struct {
	triples        []model.Triple
	revenue        float64
	selections     int
	recomputations int
	curve          []float64
}

func (st *lgState) result(selections, recomputations int) lgResult {
	out := make([]model.Triple, 0, len(st.set))
	for z := range st.set {
		out = append(out, z)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Less(out[b]) })
	return lgResult{
		triples:        out,
		revenue:        st.ev.total,
		selections:     selections,
		recomputations: recomputations,
		curve:          st.curve,
	}
}

// --- legacy heaps (map-keyed two-level) -----------------------------------
//
// The reference keeps its own copy of the heaps it was written against —
// a binary max-heap on the cached key, and Algorithm 1's two-level heap
// with one lower heap per (user, item) pair found through a map — so a
// change to internal/pqueue cannot move the reference along with the
// code it checks.

type lgHeapEntry struct {
	z    model.Triple
	q    float64
	key  float64
	flag int
	pos  int
}

func (e *lgHeapEntry) heapKey() float64 { return e.key }
func (e *lgHeapEntry) setPos(i int)     { e.pos = i }

// lgHeapItem is what lgHeap orders: larger heapKey first.
type lgHeapItem interface {
	comparable
	heapKey() float64
	setPos(int)
}

type lgHeap[T lgHeapItem] struct{ es []T }

func (h *lgHeap[T]) push(e T) {
	h.es = append(h.es, e)
	e.setPos(len(h.es) - 1)
	h.up(len(h.es) - 1)
}

func (h *lgHeap[T]) pop() {
	last := len(h.es) - 1
	h.swap(0, last)
	h.es[last].setPos(-1)
	h.es = h.es[:last]
	if last > 0 {
		h.down(0)
	}
}

func (h *lgHeap[T]) fix(i int) {
	if !h.up(i) {
		h.down(i)
	}
}

func (h *lgHeap[T]) swap(a, b int) {
	h.es[a], h.es[b] = h.es[b], h.es[a]
	h.es[a].setPos(a)
	h.es[b].setPos(b)
}

func (h *lgHeap[T]) up(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !(h.es[i].heapKey() > h.es[parent].heapKey()) {
			break
		}
		h.swap(parent, i)
		i = parent
		moved = true
	}
	return moved
}

func (h *lgHeap[T]) down(i int) {
	n := len(h.es)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.es[l].heapKey() > h.es[best].heapKey() {
			best = l
		}
		if r < n && h.es[r].heapKey() > h.es[best].heapKey() {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

type lgPairKey struct {
	u model.UserID
	i model.ItemID
}

// lgLower is one pair's heap, ranked in the upper heap by its root key.
type lgLower struct {
	pair lgPairKey
	heap lgHeap[*lgHeapEntry]
	root float64
	pos  int
}

func (lo *lgLower) heapKey() float64 { return lo.root }
func (lo *lgLower) setPos(i int)     { lo.pos = i }

func (lo *lgLower) refreshRoot() {
	lo.root = -1e308
	if len(lo.heap.es) > 0 {
		lo.root = lo.heap.es[0].key
	}
}

// lgTwoLevel holds only non-empty lower heaps: one is dropped from the
// upper heap as soon as it empties.
type lgTwoLevel struct {
	lowers map[lgPairKey]*lgLower
	upper  lgHeap[*lgLower]
	count  int
}

// add inserts e before build orders the upper heap.
func (t *lgTwoLevel) add(e *lgHeapEntry) {
	key := lgPairKey{e.z.U, e.z.I}
	lo := t.lowers[key]
	if lo == nil {
		lo = &lgLower{pair: key, pos: len(t.upper.es)}
		t.lowers[key] = lo
		t.upper.es = append(t.upper.es, lo)
	}
	lo.heap.push(e)
	lo.refreshRoot()
	t.count++
}

func (t *lgTwoLevel) build() {
	for i := len(t.upper.es)/2 - 1; i >= 0; i-- {
		t.upper.down(i)
	}
}

func (t *lgTwoLevel) peekMax() *lgHeapEntry {
	if len(t.upper.es) == 0 {
		return nil
	}
	return t.upper.es[0].heap.es[0]
}

func (t *lgTwoLevel) deleteMax() {
	top := t.upper.es[0]
	top.heap.pop()
	top.refreshRoot()
	t.count--
	if len(top.heap.es) == 0 {
		t.removeUpper(0)
	} else {
		t.upper.down(0)
	}
}

func (t *lgTwoLevel) deleteEntry(e *lgHeapEntry) {
	lo := t.lowers[lgPairKey{e.z.U, e.z.I}]
	h := &lo.heap
	last, i := len(h.es)-1, e.pos
	h.swap(i, last)
	h.es = h.es[:last]
	if i < last {
		h.fix(i)
	}
	e.pos = -1
	t.count--
	lo.refreshRoot()
	if len(h.es) == 0 {
		t.removeUpper(lo.pos)
	} else {
		t.upper.fix(lo.pos)
	}
}

func (t *lgTwoLevel) deletePair(u model.UserID, i model.ItemID) {
	lo := t.lowers[lgPairKey{u, i}]
	t.count -= len(lo.heap.es)
	t.removeUpper(lo.pos)
}

func (t *lgTwoLevel) pairEntries(u model.UserID, i model.ItemID) []*lgHeapEntry {
	return t.lowers[lgPairKey{u, i}].heap.es
}

func (t *lgTwoLevel) fixPair(u model.UserID, i model.ItemID) {
	lo := t.lowers[lgPairKey{u, i}]
	for j := len(lo.heap.es)/2 - 1; j >= 0; j-- {
		lo.heap.down(j)
	}
	lo.refreshRoot()
	t.upper.fix(lo.pos)
}

func (t *lgTwoLevel) removeUpper(i int) {
	lo := t.upper.es[i]
	last := len(t.upper.es) - 1
	t.upper.swap(i, last)
	t.upper.es = t.upper.es[:last]
	delete(t.lowers, lo.pair)
	lo.pos = -1
	if i < last {
		t.upper.fix(i)
	}
}

// --- legacy algorithm drivers -------------------------------------------

func lgGGreedyWindow(st *lgState, lo, hi model.TimeStep) (selections, recomputations int) {
	in := st.in
	heap := &lgTwoLevel{lowers: make(map[lgPairKey]*lgLower)}
	for u := 0; u < in.NumUsers; u++ {
		for _, c := range in.UserCandidates(model.UserID(u)) {
			if c.T < lo || c.T > hi {
				continue
			}
			heap.add(&lgHeapEntry{
				z:    c.Triple,
				q:    c.Q,
				key:  st.ev.marginalGain(c.Triple, c.Q),
				flag: st.ev.groupSize(c.U, in.Class(c.I)),
			})
		}
	}
	heap.build()

	limit := maxSelections(in)
	for len(st.set) < limit && heap.count > 0 {
		e := heap.peekMax()
		if e == nil || e.key <= Eps {
			break
		}
		z := e.z
		switch st.check(z) {
		case violationDisplay:
			heap.deleteEntry(e)
			continue
		case violationCapacity:
			heap.deletePair(z.U, z.I)
			continue
		}
		fresh := st.ev.groupSize(z.U, in.Class(z.I))
		if e.flag < fresh {
			for _, sib := range heap.pairEntries(z.U, z.I) {
				sib.key = st.ev.marginalGain(sib.z, sib.q)
				sib.flag = fresh
				recomputations++
			}
			heap.fixPair(z.U, z.I)
			continue
		}
		st.add(z, e.q)
		selections++
		heap.deleteMax()
	}
	return selections, recomputations
}

func lgGGreedy(in *model.Instance) lgResult {
	st := newLgState(in)
	sel, rec := lgGGreedyWindow(st, 1, model.TimeStep(in.T))
	return st.result(sel, rec)
}

func lgLocalRound(st *lgState, t model.TimeStep) (selections, recomputations int) {
	in := st.in
	var heap lgHeap[*lgHeapEntry]
	for u := 0; u < in.NumUsers; u++ {
		for _, c := range in.UserCandidates(model.UserID(u)) {
			if c.T != t {
				continue
			}
			heap.push(&lgHeapEntry{
				z:    c.Triple,
				q:    c.Q,
				key:  st.ev.marginalGain(c.Triple, c.Q),
				flag: st.ev.groupSize(c.U, in.Class(c.I)),
			})
		}
	}
	for len(heap.es) > 0 {
		e := heap.es[0]
		if e.key <= Eps {
			break
		}
		z := e.z
		if st.check(z) != violationNone {
			heap.pop()
			continue
		}
		fresh := st.ev.groupSize(z.U, in.Class(z.I))
		if e.flag < fresh {
			e.key = st.ev.marginalGain(z, e.q)
			e.flag = fresh
			recomputations++
			heap.fix(e.pos)
			continue
		}
		st.add(z, e.q)
		selections++
		heap.pop()
	}
	return selections, recomputations
}

func lgSLGreedy(in *model.Instance) lgResult {
	st := newLgState(in)
	sel, rec := 0, 0
	for t := model.TimeStep(1); int(t) <= in.T; t++ {
		s, r := lgLocalRound(st, t)
		sel += s
		rec += r
	}
	return st.result(sel, rec)
}

func lgRLGreedy(in *model.Instance, n int, seed uint64) lgResult {
	perms := samplePermutations(in.T, n, seed)
	var best lgResult
	for idx, perm := range perms {
		st := newLgState(in)
		sel, rec := 0, 0
		for _, t := range perm {
			s, r := lgLocalRound(st, model.TimeStep(t))
			sel += s
			rec += r
		}
		res := st.result(sel, rec)
		if idx == 0 || res.revenue > best.revenue {
			best = res
		}
	}
	return best
}

func lgNaiveGreedy(in *model.Instance) lgResult {
	st := newLgState(in)
	type cand struct {
		z    model.Triple
		q    float64
		dead bool
	}
	var cands []cand
	for u := 0; u < in.NumUsers; u++ {
		for _, c := range in.UserCandidates(model.UserID(u)) {
			cands = append(cands, cand{z: c.Triple, q: c.Q})
		}
	}
	limit := maxSelections(in)
	selections := 0
	for len(st.set) < limit {
		best := -1
		bestGain := Eps
		for i := range cands {
			c := &cands[i]
			if c.dead {
				continue
			}
			if st.check(c.z) != violationNone {
				c.dead = true
				continue
			}
			g := st.ev.marginalGain(c.z, c.q)
			if g > bestGain {
				bestGain = g
				best = i
			}
		}
		if best < 0 {
			break
		}
		st.add(cands[best].z, cands[best].q)
		cands[best].dead = true
		selections++
	}
	return st.result(selections, 0)
}

// --- equivalence test ----------------------------------------------------

func legacyEquivInstances(tb testing.TB) []*model.Instance {
	tb.Helper()
	params := []testgen.Params{
		{Users: 25, Items: 8, Classes: 3, T: 4, K: 2, MaxCap: 4, CandProb: 0.4, MinPrice: 5, MaxPrice: 80},
		{Users: 40, Items: 12, Classes: 5, T: 6, K: 2, MaxCap: 3, CandProb: 0.3, MinPrice: 1, MaxPrice: 100},
		{Users: 12, Items: 6, Classes: 2, T: 3, K: 3, MaxCap: 6, CandProb: 0.6, MinPrice: 10, MaxPrice: 20},
	}
	var out []*model.Instance
	for seed, p := range params {
		in := testgen.Random(dist.NewRNG(uint64(100+seed)), p)
		if err := in.Validate(); err != nil {
			tb.Fatal(err)
		}
		out = append(out, in)
	}
	return out
}

func assertLegacyEqual(t *testing.T, algo string, inIdx int, got Result, want lgResult) {
	t.Helper()
	gotTriples := got.Strategy.Triples()
	if len(gotTriples) != len(want.triples) {
		t.Fatalf("%s[%d]: %d triples, legacy %d", algo, inIdx, len(gotTriples), len(want.triples))
	}
	for i := range gotTriples {
		if gotTriples[i] != want.triples[i] {
			t.Fatalf("%s[%d]: triple %d = %v, legacy %v", algo, inIdx, i, gotTriples[i], want.triples[i])
		}
	}
	if got.Revenue != want.revenue {
		t.Fatalf("%s[%d]: revenue %.17g, legacy %.17g", algo, inIdx, got.Revenue, want.revenue)
	}
	if got.Selections != want.selections || got.Recomputations != want.recomputations {
		t.Fatalf("%s[%d]: counters (%d,%d), legacy (%d,%d)", algo, inIdx,
			got.Selections, got.Recomputations, want.selections, want.recomputations)
	}
	if len(got.Curve) != len(want.curve) {
		t.Fatalf("%s[%d]: curve length %d, legacy %d", algo, inIdx, len(got.Curve), len(want.curve))
	}
	for i := range got.Curve {
		if got.Curve[i] != want.curve[i] {
			t.Fatalf("%s[%d]: curve[%d] = %.17g, legacy %.17g", algo, inIdx, i, got.Curve[i], want.curve[i])
		}
	}
}

// TestLegacyReferenceEquivalence requires the current implementation to
// reproduce the legacy map-based implementation bit for bit: identical
// strategies, revenue, selection/recomputation counters, and revenue
// curves on random instances.
func TestLegacyReferenceEquivalence(t *testing.T) {
	for idx, in := range legacyEquivInstances(t) {
		assertLegacyEqual(t, "g-greedy", idx, GGreedy(in), lgGGreedy(in))
		assertLegacyEqual(t, "sl-greedy", idx, SLGreedy(in), lgSLGreedy(in))
		assertLegacyEqual(t, "rl-greedy", idx, RLGreedy(in, 4, 17), lgRLGreedy(in, 4, 17))
		assertLegacyEqual(t, "naive-greedy", idx, NaiveGreedy(in), lgNaiveGreedy(in))
	}
}
