// Package revenue implements the RevMax revenue model of Lu et al.
// (VLDB 2014): memory and saturation (Eq. 1), the dynamic adoption
// probability (Definition 1), the expected-revenue objective (Definition
// 2), marginal revenue (Definition 3), and the effective dynamic adoption
// probability with the capacity factor B_S(i,t) (Definition 4).
//
// The central structural fact exploited here is that q_S(u,i,t) depends
// only on triples of S with the same user and the same item class at time
// ≤ t. Rev(S) therefore decomposes into independent (user, class) groups,
// and the marginal revenue of a triple touches exactly one group. The
// Evaluator maintains this decomposition incrementally, which is what the
// greedy algorithms in internal/core build on.
package revenue

import (
	"math"
	"sort"

	"repro/internal/model"
)

// groupKey identifies one (user, class) group.
type groupKey struct {
	u model.UserID
	c model.ClassID
}

// entry is one chosen triple inside a group, with its primitive
// probability cached. A group is one (user, class), so (item, time)
// identifies an entry and the user is not stored.
type entry struct {
	i model.ItemID
	t model.TimeStep
	q float64
}

// group holds the chosen triples of one (user, class) pair, sorted by
// time (ties broken by item for determinism), plus the group's cached
// revenue contribution.
type group struct {
	entries []entry
	revenue float64
}

func (g *group) insert(e entry) {
	i := sort.Search(len(g.entries), func(k int) bool {
		ek := g.entries[k]
		if ek.t != e.t {
			return ek.t > e.t
		}
		return ek.i >= e.i
	})
	g.entries = append(g.entries, entry{})
	copy(g.entries[i+1:], g.entries[i:])
	g.entries[i] = e
}

func (g *group) remove(i model.ItemID, t model.TimeStep) bool {
	for k, e := range g.entries {
		if e.i == i && e.t == t {
			g.entries = append(g.entries[:k], g.entries[k+1:]...)
			return true
		}
	}
	return false
}

// Memory computes M_S(u,i,t) (Eq. 1) for a time-sorted list of same-class
// triples of one user: the sum of 1/(t−τ) over all class-mate
// recommendations at times τ < t. The item argument is not needed because
// memory is class-wide.
func memoryOf(entries []entry, t model.TimeStep) float64 {
	m := 0.0
	for _, e := range entries {
		if e.t < t {
			m += 1 / float64(t-e.t)
		}
	}
	return m
}

// dynamicProb computes q_S(u,i,t) per Definition 1 for the triple at
// index idx of a group's entry list, given the instance's saturation
// factor beta for that item. The entries must contain the triple itself.
func dynamicProb(in *model.Instance, entries []entry, idx int) float64 {
	e := entries[idx]
	t := e.t
	beta := in.Beta(e.i)
	mem := memoryOf(entries, t)
	p := e.q
	if mem > 0 {
		p *= math.Pow(beta, mem)
	}
	for _, o := range entries {
		if o.i == e.i && o.t == e.t {
			continue
		}
		switch {
		case o.t < t:
			p *= 1 - o.q
		case o.t == t && o.i != e.i:
			p *= 1 - o.q
		}
	}
	return p
}

// groupRevenue computes the revenue contribution Σ p(i,t)·q_S(u,i,t) of
// one (user, class) group.
func groupRevenue(in *model.Instance, entries []entry) float64 {
	rev := 0.0
	for idx, e := range entries {
		rev += in.Price(e.i, e.t) * dynamicProb(in, entries, idx)
	}
	return rev
}

// Evaluator incrementally maintains Rev(S) as triples are added to and
// removed from a strategy. The zero value is not usable; construct with
// NewEvaluator.
//
// Groups live in a dense array indexed by the instance's (user, class)
// group IDs — no map lookups on the hot path — and MarginalGain works
// in a reused scratch buffer, so the per-call allocation of the old
// map-based evaluator is gone. Triples outside every indexed group
// (possible only on unindexed instances or for hypothetical users) fall
// back to a lazily allocated overflow map. Not safe for concurrent use.
type Evaluator struct {
	in      *model.Instance
	groups  []group             // dense, indexed by model group ID
	extra   map[groupKey]*group // overflow for unindexed (user, class) pairs
	scratch []entry             // reused by MarginalGain
	total   float64
	size    int
}

// NewEvaluator returns an evaluator for the empty strategy on instance in.
// Group entry storage is carved out of one backing array sized by each
// group's selection bound, so the per-group grow-allocations of the
// map era disappear; a group overflowing its bound (possible only via
// non-candidate triples) falls back to ordinary append growth.
func NewEvaluator(in *model.Instance) *Evaluator {
	ev := &Evaluator{in: in, groups: make([]group, in.NumGroups())}
	if n := len(ev.groups); n > 0 {
		// A group can hold at most min(its candidate count, K·T) entries:
		// the display constraint caps a user at K·T selections total.
		bound := in.K * in.T
		total := 0
		caps := make([]int, n)
		for g := range caps {
			sz := len(in.GroupCandIDs(int32(g)))
			if sz > bound {
				sz = bound
			}
			caps[g] = sz
			total += sz
		}
		backing := make([]entry, total)
		off := 0
		for g := range ev.groups {
			ev.groups[g].entries = backing[off : off : off+caps[g]]
			off += caps[g]
		}
	}
	return ev
}

// Instance returns the underlying instance.
func (ev *Evaluator) Instance() *model.Instance { return ev.in }

// Total returns Rev(S) for the current strategy S.
func (ev *Evaluator) Total() float64 { return ev.total }

// CanonicalTotal returns Rev(S) as the sum of the cached group revenues
// in ascending group-ID order. Group IDs ascend in (user, class) order —
// the order Revenue sorts its groups into — every cached partial is
// groupRevenue over entries kept in Revenue's (time, item) order, and an
// empty group adds an exact 0.0, so the result equals Revenue(in, S) bit
// for bit at the cost of one add per group. Total, a running sum of
// per-mutation deltas, agrees only to float noise.
//
// The identity holds for strategies built through the ID methods on an
// instance whose prices and candidate probabilities have not moved since
// each group's last mutation; triples in the overflow map (non-candidate
// ones) are not counted.
func (ev *Evaluator) CanonicalTotal() float64 {
	total := 0.0
	for g := range ev.groups {
		total += ev.groups[g].revenue
	}
	return total
}

// GroupPartial returns the cached revenue contribution of group g — one
// term of CanonicalTotal.
func (ev *Evaluator) GroupPartial(g int32) float64 { return ev.groups[g].revenue }

// Len returns |S|.
func (ev *Evaluator) Len() int { return ev.size }

// groupAt resolves the (user, class) group for a triple; create controls
// whether a missing overflow group is allocated. nil means "no group and
// none created".
func (ev *Evaluator) groupAt(u model.UserID, c model.ClassID, create bool) *group {
	if gid, ok := ev.in.GroupID(u, c); ok {
		return &ev.groups[gid]
	}
	g := ev.extra[groupKey{u, c}]
	if g == nil && create {
		g = &group{}
		if ev.extra == nil {
			ev.extra = make(map[groupKey]*group)
		}
		ev.extra[groupKey{u, c}] = g
	}
	return g
}

// GroupSize returns the number of chosen triples in the (user, class)
// group of triple z. This is the |set(u, C(i))| used by lazy forward.
func (ev *Evaluator) GroupSize(u model.UserID, c model.ClassID) int {
	g := ev.groupAt(u, c, false)
	if g == nil {
		return 0
	}
	return len(g.entries)
}

// GroupSizeID is GroupSize addressed by candidate ID: a direct array
// read, no class lookup or scan.
func (ev *Evaluator) GroupSizeID(id model.CandID) int {
	return len(ev.groups[ev.in.GroupOf(id)].entries)
}

// marginalInto computes the gain of adding e to g in the evaluator's
// scratch buffer (no allocation once warm). The arithmetic — entry
// order, operation sequence — is exactly the map-era computation; the
// buffer's prior content never influences the value.
func (ev *Evaluator) marginalInto(g *group, e entry) float64 {
	if len(g.entries) == 0 {
		// Singleton group: gain is just p·q (no saturation, no competition).
		return ev.in.Price(e.i, e.t) * e.q
	}
	need := len(g.entries) + 1
	if cap(ev.scratch) < need {
		ev.scratch = make([]entry, 0, need*2)
	}
	tmp := ev.scratch[:len(g.entries)]
	copy(tmp, g.entries)
	tmp = append(tmp, e)
	return groupRevenue(ev.in, tmp) - g.revenue
}

// MarginalGain returns Rev(S ∪ {z}) − Rev(S) (Definition 3) without
// mutating the evaluator. q is the primitive adoption probability of z.
func (ev *Evaluator) MarginalGain(z model.Triple, q float64) float64 {
	g := ev.groupAt(z.U, ev.in.Class(z.I), false)
	if g == nil {
		return ev.in.Price(z.I, z.T) * q
	}
	return ev.marginalInto(g, entry{z.I, z.T, q})
}

// MarginalGainID is MarginalGain addressed by candidate ID; the
// candidate's primitive probability comes from the instance.
func (ev *Evaluator) MarginalGainID(id model.CandID) float64 {
	c := ev.in.CandAt(id)
	return ev.marginalInto(&ev.groups[ev.in.GroupOf(id)], entry{c.I, c.T, c.Q})
}

// addTo inserts e into g and returns the realized gain.
func (ev *Evaluator) addTo(g *group, e entry) float64 {
	old := g.revenue
	g.insert(e)
	g.revenue = groupRevenue(ev.in, g.entries)
	delta := g.revenue - old
	ev.total += delta
	ev.size++
	return delta
}

// Add inserts z into the strategy and returns the realized marginal gain.
// Adding a triple that is already present is a programming error and
// corrupts the total; callers guard with their own membership tracking.
func (ev *Evaluator) Add(z model.Triple, q float64) float64 {
	return ev.addTo(ev.groupAt(z.U, ev.in.Class(z.I), true), entry{z.I, z.T, q})
}

// AddID is Add addressed by candidate ID.
func (ev *Evaluator) AddID(id model.CandID) float64 {
	c := ev.in.CandAt(id)
	return ev.addTo(&ev.groups[ev.in.GroupOf(id)], entry{c.I, c.T, c.Q})
}

// removeFrom deletes z from g and returns the revenue change.
func (ev *Evaluator) removeFrom(g *group, z model.Triple) float64 {
	if g == nil || !g.remove(z.I, z.T) {
		return 0
	}
	old := g.revenue
	g.revenue = groupRevenue(ev.in, g.entries)
	delta := g.revenue - old
	ev.total += delta
	ev.size--
	return delta
}

// Remove deletes z from the strategy and returns the revenue change
// (usually negative of some earlier gain). It returns 0 and does nothing
// if z is not present.
func (ev *Evaluator) Remove(z model.Triple) float64 {
	return ev.removeFrom(ev.groupAt(z.U, ev.in.Class(z.I), false), z)
}

// RemoveID is Remove addressed by candidate ID.
func (ev *Evaluator) RemoveID(id model.CandID) float64 {
	c := ev.in.CandAt(id)
	return ev.removeFrom(&ev.groups[ev.in.GroupOf(id)], c.Triple)
}

// Revenue computes Rev(S) (Definition 2) for an explicit strategy from
// scratch. It is the reference implementation used to validate the
// incremental evaluator and to score algorithm outputs.
func Revenue(in *model.Instance, s *model.Strategy) float64 {
	groups := collectGroups(in, s)
	// Sum in sorted group order: float addition is not associative, so
	// map-order iteration would make the last bits of Rev(S) vary run to
	// run — enough to break byte-identical scenario reports.
	keys := make([]groupKey, 0, len(groups))
	for key := range groups {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].u != keys[b].u {
			return keys[a].u < keys[b].u
		}
		return keys[a].c < keys[b].c
	})
	total := 0.0
	for _, key := range keys {
		total += groupRevenue(in, groups[key])
	}
	return total
}

// DynamicProb computes q_S(u,i,t) (Definition 1) for triple z under
// strategy s. Per the definition, it returns 0 when z ∉ S.
func DynamicProb(in *model.Instance, s *model.Strategy, z model.Triple) float64 {
	if !s.Contains(z) {
		return 0
	}
	groups := collectGroups(in, s)
	g := groups[groupKey{z.U, in.Class(z.I)}]
	for idx, e := range g {
		if e.i == z.I && e.t == z.T {
			return dynamicProb(in, g, idx)
		}
	}
	return 0
}

// MemoryOf computes M_S(u,i,t) (Eq. 1) for triple (u,i,t) under s.
func MemoryOf(in *model.Instance, s *model.Strategy, u model.UserID, i model.ItemID, t model.TimeStep) float64 {
	c := in.Class(i)
	m := 0.0
	for _, z := range s.Triples() {
		if z.U == u && in.Class(z.I) == c && z.T < t {
			m += 1 / float64(t-z.T)
		}
	}
	return m
}

// MarginalRevenue computes Rev(S ∪ {z}) − Rev(S) from scratch (Definition
// 3). Reference implementation for tests; algorithms use Evaluator.
func MarginalRevenue(in *model.Instance, s *model.Strategy, z model.Triple) float64 {
	s2 := s.Clone()
	s2.Add(z)
	return Revenue(in, s2) - Revenue(in, s)
}

func collectGroups(in *model.Instance, s *model.Strategy) map[groupKey][]entry {
	groups := make(map[groupKey][]entry)
	for _, z := range s.Triples() {
		key := groupKey{z.U, in.Class(z.I)}
		groups[key] = append(groups[key], entry{z.I, z.T, in.Q(z.U, z.I, z.T)})
	}
	for key, g := range groups {
		sort.Slice(g, func(a, b int) bool {
			if g[a].t != g[b].t {
				return g[a].t < g[b].t
			}
			return g[a].i < g[b].i
		})
		groups[key] = g
	}
	return groups
}

// CapacityOracle estimates B_S(i,t) = Pr[at most qᵢ−1 of the users other
// than u who were recommended i up to time t adopt it] (Definition 4).
// Implementations live in internal/poibin; the indirection keeps this
// package free of the estimation choice (exact DP vs Monte Carlo), exactly
// as the paper treats the oracle as pluggable.
type CapacityOracle interface {
	// TailAtMost returns Pr[at most k of independent Bernoulli trials with
	// the given success probabilities succeed].
	TailAtMost(probs []float64, k int) float64
}

// EffectiveRevenue computes the R-REVMAX objective: Definition 2 with
// q_S replaced by the effective dynamic adoption probability E_S of
// Definition 4. Each other user v contributes an adoption probability
// 1 − Π_{(v,i,τ)∈S, τ≤t}(1−q(v,i,τ)) to the Poisson-binomial tail; when a
// user was recommended the item only once this reduces to the primitive
// probability used in Example 3 of the paper.
func EffectiveRevenue(in *model.Instance, s *model.Strategy, oracle CapacityOracle) float64 {
	groups := collectGroups(in, s)
	// For every (item, user), the probability that the user adopts the
	// item when recommended at times τ ≤ t. We need per-time prefix data;
	// gather all recommendations of each item sorted by time.
	byItem := make(map[model.ItemID][]itemRec)
	for _, z := range s.Triples() {
		byItem[z.I] = append(byItem[z.I], itemRec{z.U, z.T, in.Q(z.U, z.I, z.T)})
	}
	for i := range byItem {
		rs := byItem[i]
		sort.Slice(rs, func(a, b int) bool { return rs[a].t < rs[b].t })
	}

	// Sum in sorted group order: float addition is not associative, so
	// map-order iteration would make the last bits vary run to run.
	keys := make([]groupKey, 0, len(groups))
	for key := range groups {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].u != keys[b].u {
			return keys[a].u < keys[b].u
		}
		return keys[a].c < keys[b].c
	})
	total := 0.0
	for _, key := range keys {
		g := groups[key]
		for idx, e := range g {
			qs := dynamicProb(in, g, idx)
			if qs == 0 {
				continue
			}
			b := capacityFactor(in, byItem[e.i], key.u, model.Triple{U: key.u, I: e.i, T: e.t}, oracle)
			total += in.Price(e.i, e.t) * qs * b
		}
	}
	return total
}

// itemRec is one recommendation of a fixed item: to whom, when, and with
// what primitive adoption probability.
type itemRec struct {
	u model.UserID
	t model.TimeStep
	q float64
}

// capacityFactor computes B_S(i,t) for the triple z=(u,i,t): the
// probability that at most qᵢ−1 of the *other* users recommended i up to
// time t adopt it. When fewer than qᵢ other users are involved the factor
// is exactly 1 (Definition 4 discussion).
func capacityFactor(in *model.Instance, recs []itemRec, u model.UserID, z model.Triple, oracle CapacityOracle) float64 {
	// Per other user: adoption probability 1 − Π(1−q) over recs at τ ≤ t.
	surv := make(map[model.UserID]float64)
	for _, r := range recs {
		if r.u == u || r.t > z.T {
			continue
		}
		if _, ok := surv[r.u]; !ok {
			surv[r.u] = 1
		}
		surv[r.u] *= 1 - r.q
	}
	capQ := in.Capacity(z.I)
	if len(surv) < capQ {
		return 1
	}
	// Feed the oracle in sorted user order: the Poisson-binomial DP (and
	// a Monte-Carlo oracle's draws) are order-sensitive at the last bit,
	// and map iteration order varies run to run.
	uids := make([]model.UserID, 0, len(surv))
	for u := range surv {
		uids = append(uids, u)
	}
	sort.Slice(uids, func(a, b int) bool { return uids[a] < uids[b] })
	probs := make([]float64, 0, len(surv))
	for _, u := range uids {
		probs = append(probs, 1-surv[u])
	}
	return oracle.TailAtMost(probs, capQ-1)
}
