package core

import (
	"context"
	"slices"

	"repro/internal/model"
	"repro/internal/pqueue"
	"repro/internal/revenue"
)

// SessionConfig tunes a persistent incremental solver session.
type SessionConfig struct {
	// Seeded selects warm-started replans: each Solve seeds the greedy
	// with the previous solve's plan (GGreedyWarm semantics) instead of
	// selecting from scratch (GGreedy semantics). Matches the serving
	// engine's WarmStart switch.
	Seeded bool
	// MaxExposures bounds each (user, class) exposure list, evicting the
	// oldest exposure once the cap is reached — it must equal the bound
	// the feeding layer applies (serving uses model.MaxExposuresPerClass)
	// or saturation memories diverge. 0 means unbounded.
	MaxExposures int
}

// SessionStats describes the incremental work of the last Solve — the
// observability counters behind the BENCH_plan.json dirty-candidate
// gates.
type SessionStats struct {
	// DirtyCands counts candidates whose cached upper-bound key was
	// recomputed because a journaled event invalidated it (the CandID
	// fan-out of the event journal through the inverted indexes). Clean
	// candidates keep their cached bounds verbatim.
	DirtyCands int
	// RestoredPairs / RestoredEntries count the (user, item) lower heaps
	// rebuilt to their pristine upper bounds before the scan and the
	// entries re-linked into them: pairs of groups holding a dirty seeded
	// candidate or a dropped warm seed, pairs whose membership changed
	// (an aliveness flip), and violation-dropped pairs woken by a
	// capacity or plan change. Every other dirty candidate is repaired in
	// place with a point heap update, and every untouched pair keeps its
	// entries — and their lazily corrected keys — verbatim across solves.
	RestoredPairs   int
	RestoredEntries int
	// UnwoundCands counts the planned candidates Solve removed from the
	// live plan and evaluator to replay them as warm seeds, and
	// ReplayedGroups the (user, class) groups they belong to (the replay
	// set, see unwindReplaySet). Every other group's members stay in place.
	UnwoundCands   int
	ReplayedGroups int
	// NumCands is the session's total candidate count, the denominator
	// for dirty/restored ratios.
	NumCands int
}

// Session is a persistent incremental G-Greedy solver: it keeps the
// dense two-level heap, the candidate-indexed Plan, and the revenue
// evaluator alive across replans, and accepts a journal of feedback
// deltas (exposures/adoptions, stock overrides, price rescales, clock
// advances) between solves. Each event is mapped through the instance's
// inverted indexes — per-(user,class) group, per-item, per-(user,time)
// slot — to the exact set of dirty CandIDs; at the next Solve only those
// candidates get their upper-bound keys recomputed, only heap pairs of
// groups the journal (or a dropped seed) actually invalidated are
// rebuilt, only groups whose warm-seed replay can come out differently
// are unwound and replayed (see SolveCtx), and the lazily corrected keys
// of every untouched pair carry over — they remain valid upper bounds
// while the seeded plan keeps covering the group content they were
// evaluated against. The plan, its per-group revenue partials and the
// warm-seed accounting are identical
// to solving planner.Residual(base, feedback) from scratch with GGreedy
// (unseeded) or GGreedyWarm on the previous plan (Seeded):
//
//   - The session's private instance clone carries the residual's
//     exact per-candidate q′ (saturation-folded via the same
//     model.Discount/SaturationMemory kernels) and capacities, so every
//     marginal gain and tie-break agrees bit-for-bit.
//   - Dead candidates (past horizon, adopted class, depleted stock,
//     zero q′) are absent from the heap, like the residual; alive
//     candidates carry the same p·q′ upper-bound init with a zero
//     lazy-forward flag.
//   - Entries the residual solve would never have admitted (infeasible
//     against the seeded plan) are deleted when they surface at the
//     heap root, which cannot change the selection sequence.
//
// A Session is bound to one goroutine at a time; it is not safe for
// concurrent use.
type Session struct {
	cfg  SessionConfig
	base *model.Instance // the caller's instance, read only for primitive q
	in   *model.Instance // private clone; q′/capacity/prices mutate in place

	st   *state
	heap *pqueue.TwoLevel
	// entries is the CandID-indexed entry storage; pointers into it are
	// stable for the session's lifetime (the heap holds them).
	entries []pqueue.Entry

	// Feedback state, mirrored from the feeding layer's event order:
	// users[u] is user u's history (adopted classes, exposure times), in
	// the form the serving engine keeps, so an adoption consumes stock
	// exactly once whether or not its (user, class) has candidates.
	now   model.TimeStep
	users []model.UserFeedback
	stock []int // per item; the capacity source of truth
	// diff is LoadFeedback's scratch list of changed classes.
	diff []model.ClassID

	// alive caches the aliveness predicate per candidate (alive ⟺ present
	// in the residual instance). Nothing else per candidate is cached:
	// primitive q is base's, and the p·q′ upper bound is the clone's price
	// times its q′, both kept current because every change to either
	// dirties the candidate.
	alive []bool

	// Journal fan-out: dirty candidates since the last Solve, and items
	// whose capacity must be re-synced onto the instance (deferred past
	// the plan unwind — Plan.Remove compares against live capacities).
	dirtySeen []bool
	dirtyList []model.CandID
	itemSeen  []bool
	itemList  []model.ItemID
	// touchedPairs accumulates pairs that must be rebuilt to pristine
	// upper bounds before the next scan. Pairs stay out of this set by
	// default: a key the scan lazily corrected remains a valid upper
	// bound across solves as long as the entry's group plan content never
	// shrinks and no group member is re-keyed, so only pairs of groups
	// with a dirty candidate or a dropped seed (tracked per group through
	// groupTouched) and woken violation-dropped pairs are rebuilt.
	pairSeen     []bool
	touchedPairs []int32
	groupTouched []bool
	touchedGrps  []int32
	// restoreAll forces a wholesale pristine rebuild of every pair at the
	// next Solve: unseeded replans (group contents restart empty, so no
	// correction survives) and externally re-seeded sessions (SeedTriples
	// breaks the content-superset invariant the corrections rely on).
	restoreAll bool
	// Violation-dropped heap state parks here instead of being rebuilt
	// every solve. A pair dropped for item capacity stays infeasible while
	// the item's capacity never rises and no seed on the item drops; an
	// entry dropped for a full display slot stays infeasible until one of
	// its user's seeds drops. capDeferred / dispDeferred list the dropped
	// pairs per item / per user, and wakeItem / wakeUser move them back
	// into touchedPairs exactly when such a change occurs.
	capDeferred  [][]int32
	capDefMark   []bool
	dispDeferred [][]int32
	dispDefMark  []bool

	// The live plan (st.p) is the next warm seed. selGrps lists the groups
	// the last scan selected into (repeats allowed): their members entered
	// in greedy order and have not yet been validated in the ascending
	// CandID order seeding uses, so the next Solve replays them.
	// replaySeen/replayGrps dedup one Solve's replay set, and unwind holds
	// its planned members. prev is an externally supplied seed in ascending
	// CandID order, non-nil only between SeedTriples and the next Solve.
	selGrps    []int32
	replaySeen []bool
	replayGrps []int32
	unwind     []model.CandID
	prev       []model.CandID
	scratch    []*pqueue.Entry

	last SessionStats
}

// NewSession builds a session over a finished instance. The instance is
// cloned — the session never mutates the caller's copy — and stays the
// session's source of each candidate's primitive q, so the caller must
// not change candidate probabilities on it (SetCandQ) while the session
// lives; prices and capacities it may change freely. The initial state
// has no feedback: clock at 1, full stock, no exposures or adoptions,
// every positive-q candidate alive in the heap under its p·q bound.
func NewSession(in *model.Instance, cfg SessionConfig) *Session {
	if !in.Indexed() {
		panic("core: NewSession before FinishCandidates")
	}
	cl := in.Clone()
	n := cl.NumCands()
	s := &Session{
		cfg:          cfg,
		base:         in,
		in:           cl,
		st:           newState(cl),
		heap:         pqueue.NewTwoLevelDense(cl.NumPairs(), pairCaps(cl)),
		entries:      make([]pqueue.Entry, n),
		now:          1,
		users:        make([]model.UserFeedback, cl.NumUsers),
		stock:        make([]int, cl.NumItems()),
		alive:        make([]bool, n),
		dirtySeen:    make([]bool, n),
		replaySeen:   make([]bool, cl.NumGroups()),
		itemSeen:     make([]bool, cl.NumItems()),
		pairSeen:     make([]bool, cl.NumPairs()),
		groupTouched: make([]bool, cl.NumGroups()),
		capDeferred:  make([][]int32, cl.NumItems()),
		capDefMark:   make([]bool, cl.NumPairs()),
		dispDeferred: make([][]int32, cl.NumUsers),
		dispDefMark:  make([]bool, cl.NumPairs()),
	}
	for i := range s.stock {
		s.stock[i] = cl.Capacity(model.ItemID(i))
	}
	maxPair := 0
	for p := 0; p < cl.NumPairs(); p++ {
		if c := cl.PairCandCount(int32(p)); c > maxPair {
			maxPair = c
		}
	}
	s.scratch = make([]*pqueue.Entry, 0, maxPair)
	flat := cl.Candidates()
	for id := range flat {
		c := &flat[id]
		cid := model.CandID(id)
		s.entries[id] = pqueue.Entry{
			ID:   cid,
			Pair: cl.PairOf(cid),
			Key:  cl.Price(c.I, c.T) * c.Q,
		}
		if c.Q > 0 && s.stock[c.I] > 0 {
			s.alive[id] = true
			s.heap.Add(&s.entries[id])
		}
	}
	s.heap.Build()
	s.last.NumCands = n
	return s
}

// Instance returns the session's private residual-equivalent instance:
// per-candidate q′ with realized saturation folded in, capacities at
// remaining stock, current prices. Callers may read it (revenue
// accounting, admission checks) but must not mutate it. Candidate IDs
// are the base instance's — the clone preserves the CandID space.
func (s *Session) Instance() *model.Instance { return s.in }

// Now returns the session clock (the first unexecuted time step).
func (s *Session) Now() model.TimeStep { return s.now }

// LastStats reports the incremental work of the most recent Solve.
func (s *Session) LastStats() SessionStats { return s.last }

// markDirty records one candidate as dirty and refreshes its cached
// bounds immediately. Invalidation runs eagerly on the event path — by
// the time Solve starts, every cached q′/aliveness/upper bound is
// already current — so replan latency stays flat in the event rate: the
// per-event work (saturation kernels, point heap updates) is paid as
// each event is journaled, exactly where the serving layer absorbs it.
// The refresh runs on every call, not just the first: a candidate
// dirtied twice has moved twice.
func (s *Session) markDirty(id model.CandID) {
	if !s.dirtySeen[id] {
		s.dirtySeen[id] = true
		s.dirtyList = append(s.dirtyList, id)
	}
	s.refresh(id)
}

// touchPair queues one (user, item) lower heap for a pristine rebuild.
func (s *Session) touchPair(p int32) {
	if !s.pairSeen[p] {
		s.pairSeen[p] = true
		s.touchedPairs = append(s.touchedPairs, p)
	}
}

// touchGroup queues every pair of one (user, class) group for a
// pristine rebuild. Each pair belongs to exactly one group, so this
// invalidates precisely the corrected keys whose upper-bound status the
// group's change voids: marginal gains depend only on the candidate's
// own group content and values.
func (s *Session) touchGroup(g int32) {
	if s.groupTouched[g] {
		return
	}
	s.groupTouched[g] = true
	s.touchedGrps = append(s.touchedGrps, g)
	for _, id := range s.in.GroupCandIDs(g) {
		s.touchPair(s.in.PairOf(id))
	}
}

// wakeItem re-queues the pairs dropped while item i was at capacity.
func (s *Session) wakeItem(i model.ItemID) {
	ps := s.capDeferred[i]
	if len(ps) == 0 {
		return
	}
	for _, p := range ps {
		s.capDefMark[p] = false
		s.touchPair(p)
	}
	s.capDeferred[i] = ps[:0]
}

// wakeUser re-queues the pairs holding entries dropped while one of
// user u's display slots was full.
func (s *Session) wakeUser(u model.UserID) {
	ps := s.dispDeferred[u]
	if len(ps) == 0 {
		return
	}
	for _, p := range ps {
		s.dispDefMark[p] = false
		s.touchPair(p)
	}
	s.dispDeferred[u] = ps[:0]
}

// dropSeed handles a warm seed that failed re-validation: the previous
// plan shrinks at the seed's group, item, and display slots, so the
// group's corrected keys lose their upper-bound guarantee and parked
// violation-dropped pairs on the seed's item and user may be feasible
// again.
func (s *Session) dropSeed(id model.CandID) {
	c := s.in.CandAt(id)
	s.touchGroup(s.in.GroupOf(id))
	s.wakeItem(c.I)
	s.wakeUser(c.U)
}

// markItem queues one item for a capacity re-sync at the next Solve.
func (s *Session) markItem(i model.ItemID) {
	if !s.itemSeen[i] {
		s.itemSeen[i] = true
		s.itemList = append(s.itemList, i)
	}
}

// dirtyGroupAfter marks group g's candidates at steps strictly after
// tau dirty (a tau of 0 marks the whole group: memory and adoption
// changes reach every step).
func (s *Session) dirtyGroupAfter(g int32, tau model.TimeStep) {
	for _, id := range s.in.GroupCandIDs(g) {
		if s.in.CandAt(id).T > tau {
			s.markDirty(id)
		}
	}
}

// setStock is the shared stock mutation: records the new level, queues
// the capacity sync, and — when positivity flips either way — dirties
// every candidate of the item (their aliveness changed).
func (s *Session) setStock(i model.ItemID, n int) {
	old := s.stock[i]
	if old == n {
		return
	}
	s.stock[i] = n
	s.markItem(i)
	if (old > 0) != (n > 0) {
		for _, id := range s.in.ItemCandIDs(i) {
			s.markDirty(id)
		}
	}
}

// Observe journals one realized recommendation outcome — the AdoptDelta
// of the event journal, mirroring serve.Engine's apply through the same
// model.UserFeedback.Observe: the exposure always accrues saturation
// memory (evicting the oldest beyond MaxExposures), and a first adoption
// in the class marks the class adopted and consumes one unit of stock
// (floored at zero).
func (s *Session) Observe(u model.UserID, i model.ItemID, t model.TimeStep, adopted bool) {
	c := s.in.Class(i)
	first, evicted := s.users[u].Observe(c, t, adopted, s.cfg.MaxExposures)
	if g, ok := s.in.GroupID(u, c); ok {
		switch {
		case first:
			s.dirtyGroupAfter(g, 0) // an adoption reaches every step
		case evicted != 0:
			// Eviction shifts every remembered time: memory can move in
			// either direction at any step after the dropped exposure.
			s.dirtyGroupAfter(g, min(evicted, t))
		default:
			s.dirtyGroupAfter(g, t)
		}
	}
	if first && s.stock[i] > 0 {
		s.setStock(i, s.stock[i]-1)
	}
}

// SetStock journals an exogenous stock override (the StockDelta).
func (s *Session) SetStock(i model.ItemID, n int) {
	s.setStock(i, n)
}

// ScalePrice journals a price rescale (the PriceDelta): item i's price
// is multiplied by factor from step `from` through the horizon end
// through model.Instance.ScalePrice, the rescale serve.Engine applies,
// so both instances stay bit-identical.
func (s *Session) ScalePrice(i model.ItemID, from model.TimeStep, factor float64) {
	s.in.ScalePrice(i, from, factor)
	for _, id := range s.in.ItemCandIDs(i) {
		if s.in.CandAt(id).T >= from {
			s.markDirty(id)
		}
	}
}

// Advance journals a clock move: candidates at steps that leave (or
// re-enter, defensively) the residual horizon are dirtied through the
// display-slot index, step by step in ascending CandID order.
func (s *Session) Advance(t model.TimeStep) {
	if t < 1 {
		t = 1
	}
	if t == s.now {
		return
	}
	lo, hi := s.now, t
	if lo > hi {
		lo, hi = hi, lo
	}
	hi = min(hi, model.TimeStep(s.in.T+1))
	// The clock moves first: markDirty refreshes eagerly against it.
	s.now = t
	for step := lo; step < hi; step++ {
		for sl := int32(0); int(sl) < s.in.NumSlots(); sl++ {
			if s.in.SlotTime(sl) != step {
				continue
			}
			for _, id := range s.in.SlotCandIDs(sl) {
				s.markDirty(id)
			}
		}
	}
}

// SeedTriples primes the next Seeded Solve with an externally supplied
// warm plan (a recovered engine's last installed plan). It replaces the
// live plan as the seed; triples that are not candidates are ignored,
// matching GGreedyWarm's CandIDOf filter.
func (s *Session) SeedTriples(warm []model.Triple) {
	// The externally supplied plan need not extend the plan the cached
	// corrections were computed under, so none of them can be trusted, and
	// the whole live plan is unwound to make room for it.
	s.restoreAll = true
	s.prev = make([]model.CandID, 0, len(warm))
	for _, z := range warm {
		if id, ok := s.in.CandIDOf(z); ok {
			s.prev = append(s.prev, id)
		}
	}
	slices.Sort(s.prev)
}

// LoadFeedback reconciles the session against a complete external
// feedback view (planner.Feedback's fields: per-user histories dense by
// UserID — nil or short means no observations — stock, clock), diffing
// instead of rebuilding: only (user, class) groups whose adopted flag or
// exposure list actually changed — in either direction, so a
// crash-recovered view that lost events also converges — dirty their
// candidates, and only items whose stock moved re-sync. The session
// keeps copies of the histories it takes over. stock may be nil
// (untouched).
func (s *Session) LoadFeedback(users []model.UserFeedback, stock []int, now model.TimeStep) {
	var none model.UserFeedback
	for u := range s.users {
		v := &none
		if u < len(users) {
			v = &users[u]
		}
		cur := &s.users[u]
		if cur.Empty() && v.Empty() {
			continue
		}
		if s.diff = cur.DiffClasses(v, s.diff[:0]); len(s.diff) == 0 {
			continue
		}
		// The new history goes in first: dirtying refreshes eagerly.
		*cur = v.Clone()
		for _, c := range s.diff {
			if g, ok := s.in.GroupID(model.UserID(u), c); ok {
				s.dirtyGroupAfter(g, 0)
			}
		}
	}
	if stock != nil {
		for i := range stock {
			if s.stock[i] != stock[i] {
				s.setStock(model.ItemID(i), stock[i])
			}
		}
	}
	s.Advance(now)
}

// Solve replans from the seeded persistent state. See SolveCtx.
func (s *Session) Solve() Result {
	res, _ := s.SolveCtx(context.Background(), nil)
	return res
}

// SolveCtx runs one incremental replan: unwind the replay set (see
// unwindReplaySet), fold in the journal's deferred capacity sync, replay
// the unwound members as seeds (Seeded mode), rebuild only the
// invalidated heap pairs, and run the standard lazy-forward scan from the
// restored state.
//
// The session contract: Result.Plan, CanonicalRevenue, every group's
// evaluator partial, Selections and WarmKept/WarmDropped equal
// GGreedyWarmCtx on the previous plan (Seeded) or GGreedyCtx (unseeded)
// over the equivalent residual instance, bit for bit. Three fields are
// the session's own: Result.Strategy is nil (Result.Plan, in the base
// instance's CandID space, carries the selection; Plan.Strategy() builds
// the map view on demand), and since most of the plan is never re-added
// there is no running sum of gains to report — Result.Revenue is
// CanonicalRevenue and Result.Curve is nil. ctx is checked once per scan
// iteration; a canceled solve returns the partial result with ctx's
// error, and the session remains consistent for further events and solves.
func (s *Session) SolveCtx(ctx context.Context, progress ProgressFn) (Result, error) {
	st := s.st

	// 1. Unwind the replay set. This must precede the capacity sync:
	// Plan.Remove balances its over-capacity counters against the
	// capacities seen at Add time.
	planned := st.p.Len()
	seeds, groups := s.unwindReplaySet()
	s.last = SessionStats{
		DirtyCands:     len(s.dirtyList),
		UnwoundCands:   len(seeds),
		ReplayedGroups: groups,
		NumCands:       len(s.entries),
	}
	if s.prev != nil {
		seeds, planned = s.prev, len(s.prev)
	}
	st.stats = SolveStats{}
	st.curve = st.curve[:0]

	// 2. Fold the journal's bookkeeping in. The dirty candidates' bounds
	// and heap entries were already repaired eagerly as each event was
	// journaled; what remains is deferred capacity sync (a raise wakes
	// the pairs parked while the item was saturated).
	for _, i := range s.itemList {
		s.itemSeen[i] = false
		cap := max(s.stock[i], 0)
		if cap > s.in.Capacity(i) {
			s.wakeItem(i)
		}
		s.in.SetItem(i, s.in.Class(i), s.in.Beta(i), cap)
	}
	s.itemList = s.itemList[:0]
	for _, id := range s.dirtyList {
		s.dirtySeen[id] = false
	}
	s.dirtyList = s.dirtyList[:0]

	// 3. Seed, before the heap restore so that dropped seeds can still
	// invalidate their group's corrected keys and wake parked pairs on
	// their item and user. Seeded mode replays seedWarm exactly for the
	// unwound members (canonical order, feasibility and profitability
	// re-checks); unseeded mode starts every group's content from empty,
	// which voids every cached correction, so the whole heap is rebuilt
	// pristine.
	if s.cfg.Seeded {
		for _, id := range seeds {
			if !s.alive[id] {
				s.dropSeed(id) // not a residual candidate anymore
				continue
			}
			if st.check(id) != violationNone {
				s.dropSeed(id) // display slot or capacity gone
				continue
			}
			if st.add(id) <= Eps {
				st.remove(id)
				s.dropSeed(id)
			}
		}
		st.stats.WarmKept = st.p.Len()
		st.stats.WarmDropped = planned - st.p.Len()
	} else {
		s.restoreAll = true
	}
	s.prev = nil
	seeded := st.p.Len()

	// 4. Restore: every queued pair is rebuilt pristine — alive
	// candidates return under their cached p·q′ upper bound with a zero
	// flag, dead ones drop out. Every other pair keeps its entries and
	// corrected keys verbatim: content-superset seeding keeps them valid
	// upper bounds, and the (Key desc, ID asc) total order makes pop
	// order independent of heap shape, so reuse cannot perturb the
	// selection sequence.
	if s.restoreAll {
		s.restoreAll = false
		for i := range s.capDeferred {
			for _, p := range s.capDeferred[i] {
				s.capDefMark[p] = false
			}
			s.capDeferred[i] = s.capDeferred[i][:0]
		}
		for u := range s.dispDeferred {
			for _, p := range s.dispDeferred[u] {
				s.dispDefMark[p] = false
			}
			s.dispDeferred[u] = s.dispDeferred[u][:0]
		}
		for _, p := range s.touchedPairs {
			s.pairSeen[p] = false
		}
		s.touchedPairs = s.touchedPairs[:0]
		for p := 0; p < s.in.NumPairs(); p++ {
			s.restorePair(int32(p))
		}
	} else {
		for _, p := range s.touchedPairs {
			s.pairSeen[p] = false
			s.restorePair(p)
		}
		s.touchedPairs = s.touchedPairs[:0]
	}
	for _, g := range s.touchedGrps {
		s.groupTouched[g] = false
	}
	s.touchedGrps = s.touchedGrps[:0]
	st.stats.Considered = s.heap.Len()

	// 5. The lazy-forward scan, identical to gGreedyWindow's selection
	// loop plus touched-pair tracking for the next restore.
	sel, rec, err := s.scan(ctx, progress)

	res := st.planResult(seeded+sel, rec)
	res.Revenue, res.Curve = res.CanonicalRevenue, nil
	// The session's plan stays live across solves; hand callers a copy.
	res.Plan = st.p.Clone()
	return res, err
}

// unwindReplaySet removes from the live plan and evaluator the planned
// members of every group whose seeding replay is not known to repeat, and
// returns them in ascending CandID order with the group count. A group is a replay fixpoint —
// GGreedyWarm's seeding would re-add exactly its members with exactly
// their partial — once all of them were seeded in canonical order and
// nothing they depend on moved since. So the replay set is: groups the
// journal touched through a planned member (touchedGrps); groups the last
// scan selected into; and, for every item whose new capacity is below its
// planned distinct recipients, the groups of all planned candidates on it
// — the only coupling between groups, since a replayed subset of a valid
// plan cannot fail a display check and can fail a capacity check only on
// such an item. restoreAll (an external seed) and unseeded sessions
// unwind every planned group.
func (s *Session) unwindReplaySet() ([]model.CandID, int) {
	st := s.st
	ids := s.unwind[:0]
	mark := func(g int32) bool {
		if s.replaySeen[g] {
			return false
		}
		s.replaySeen[g] = true
		s.replayGrps = append(s.replayGrps, g)
		return true
	}
	if s.restoreAll || !s.cfg.Seeded {
		st.p.Each(func(id model.CandID) bool {
			ids = append(ids, id)
			mark(s.in.GroupOf(id))
			return true
		})
	} else {
		replay := func(g int32) {
			if !mark(g) {
				return
			}
			for _, id := range s.in.GroupCandIDs(g) {
				if st.p.Contains(id) {
					ids = append(ids, id)
				}
			}
		}
		for _, g := range s.touchedGrps {
			replay(g)
		}
		for _, g := range s.selGrps {
			replay(g)
		}
		for _, i := range s.itemList {
			if max(s.stock[i], 0) >= st.p.ItemUsers(i) {
				continue
			}
			for _, id := range s.in.ItemCandIDs(i) {
				if st.p.Contains(id) {
					replay(s.in.GroupOf(id))
				}
			}
		}
		slices.Sort(ids)
	}
	s.selGrps = s.selGrps[:0]
	groups := len(s.replayGrps)
	for _, g := range s.replayGrps {
		s.replaySeen[g] = false
	}
	s.replayGrps = s.replayGrps[:0]
	for _, id := range ids {
		st.p.Remove(id)
		st.ev.RemoveID(id)
	}
	s.unwind = ids
	return ids, groups
}

// refresh recomputes one dirty candidate — saturation-folded q′ (written
// into the clone in place), the aliveness predicate (exactly
// planner.Residual's membership test), the p·q′ upper bound — and
// repairs the heap around the change with the cheapest sound
// invalidation:
//
//   - A dirty member of the live plan voids its whole group's
//     corrected keys (their gains were evaluated against group content
//     holding its old value), so the group's pairs rebuild pristine —
//     and puts the group in the next Solve's replay set.
//   - An aliveness flip changes pair membership, so the pair rebuilds.
//   - Everything else is repaired in place: the fresh p·q′ bounds the
//     new gain on its own, so the entry's key is lifted to it when it
//     rose and kept otherwise (a stored key at least p·q′ still
//     dominates the gain), and a negative lazy-forward flag — always
//     below the non-negative group size — forces an exact recompute
//     before the entry can be selected.
func (s *Session) refresh(id model.CandID) {
	c := s.in.CandAt(id)
	g := s.in.GroupOf(id)
	f, cl := &s.users[c.U], s.in.Class(c.I)
	q := s.base.CandAt(id).Q
	if q > 0 {
		q = model.Discount(q, s.in.Beta(c.I), model.SaturationMemory(f.Exposures(cl), c.T))
	}
	s.in.SetCandQ(id, q)
	ub := s.in.Price(c.I, c.T) * q
	alive := c.T >= s.now && !f.HasAdopted(cl) && s.stock[c.I] > 0 && q > 0
	wasAlive := s.alive[id]
	s.alive[id] = alive
	if s.st.p.Contains(id) {
		s.touchGroup(g)
		return
	}
	if alive != wasAlive {
		s.touchPair(s.in.PairOf(id))
		return
	}
	if !alive {
		return
	}
	e := &s.entries[id]
	if e.Key < ub {
		if !s.heap.UpdateKey(e, ub, -1) {
			// Not in an active lower heap (consumed as a seed, or its pair
			// is parked): the fields are ignored until a restore resets
			// them, so writing them through is harmless.
			e.Key, e.Flag = ub, -1
		}
	} else {
		// Key order unchanged, so the in-heap mutation is invariant-safe.
		e.Flag = -1
	}
}

// restorePair rebuilds one (user, item) lower heap to its pristine
// state: every alive candidate under its p·q′ upper bound with a zero
// lazy-forward flag, dead candidates dropped. The bound is the product
// refresh last computed: any price or q′ change since would have dirtied
// the candidate and refreshed it.
func (s *Session) restorePair(p int32) {
	lo, hi := s.in.PairCandSpan(p)
	if lo == hi {
		return
	}
	buf := s.scratch[:0]
	for id := lo; id < hi; id++ {
		if !s.alive[id] {
			continue
		}
		c := s.in.CandAt(id)
		e := &s.entries[id]
		e.Key = s.in.Price(c.I, c.T) * c.Q
		e.Flag = 0
		buf = append(buf, e)
	}
	s.heap.RestorePair(p, buf)
	s.last.RestoredPairs++
	s.last.RestoredEntries += len(buf)
}

func (s *Session) scan(ctx context.Context, progress ProgressFn) (selections, recomputations int, err error) {
	st, heap := s.st, s.heap
	limit := maxSelections(s.in)
	// Progress.Best is anchored at the canonical total each solve: the
	// evaluator's own running sum is never re-zeroed over a session's
	// life and would carry every past replan's rounding.
	var best float64
	if progress != nil {
		best = st.ev.CanonicalTotal()
	}
	for st.len() < limit && !heap.Empty() {
		if err := ctx.Err(); err != nil {
			return selections, recomputations, err
		}
		st.stats.HeapPops++
		e := heap.PeekMax()
		if e == nil || e.Key <= Eps {
			break
		}
		switch st.check(e.ID) {
		case violationDisplay:
			// The (user, t) display slot stays full until one of the
			// user's seeds drops; park the pair until then instead of
			// rebuilding and re-discarding it every solve.
			if !s.dispDefMark[e.Pair] {
				s.dispDefMark[e.Pair] = true
				u := s.in.CandAt(e.ID).U
				s.dispDeferred[u] = append(s.dispDeferred[u], e.Pair)
			}
			heap.DeleteEntry(e)
			continue
		case violationCapacity:
			// The item stays at capacity until its capacity rises or one
			// of its seeds drops; park the whole pair until then.
			if !s.capDefMark[e.Pair] {
				s.capDefMark[e.Pair] = true
				i := s.in.CandAt(e.ID).I
				s.capDeferred[i] = append(s.capDeferred[i], e.Pair)
			}
			heap.DeletePairOf(e)
			continue
		}
		fresh := int32(st.ev.GroupSizeID(e.ID))
		if e.Flag < fresh {
			// The corrected keys stay in place across solves: they remain
			// valid upper bounds while the group's content only grows.
			for _, sib := range heap.PairEntriesOf(e) {
				sib.Key = st.ev.MarginalGainID(sib.ID)
				sib.Flag = fresh
				recomputations++
			}
			heap.FixPairOf(e)
			continue
		}
		// Selection consumes the entry without dirtying its siblings: a
		// re-seeded plan re-covers it next solve, and dropSeed restores
		// its group's pairs if the seed fails re-validation (an unseeded
		// session rebuilds the whole heap anyway).
		best += st.add(e.ID)
		s.selGrps = append(s.selGrps, s.in.GroupOf(e.ID))
		selections++
		heap.DeleteMax()
		if progress != nil {
			progress(Progress{Done: st.len(), Total: limit, Best: best})
		}
	}
	return selections, recomputations, nil
}

// Revenue returns the true-model revenue of strategy s under the
// session's residual-equivalent instance — bit-identical to scoring the
// same strategy on planner.Residual of the base instance.
func (s *Session) Revenue(strat *model.Strategy) float64 {
	return revenue.Revenue(s.in, strat)
}

func min(a, b model.TimeStep) model.TimeStep {
	if a < b {
		return a
	}
	return b
}
