package serve

import (
	"sort"
	"sync"
	"time"

	"repro/internal/model"
)

// planEntry is one planned recommendation for a user, with the primitive
// adoption probability and price cached so the serving hot path never
// touches the instance's binary-searched candidate lists.
type planEntry struct {
	t     model.TimeStep
	item  model.ItemID
	class model.ClassID
	beta  float64
	q     float64
	price float64
}

// plan is an immutable snapshot of a planned strategy, indexed for O(k)
// per-(user, t) lookup. Readers load it through an atomic.Pointer; a
// replan builds a fresh plan and swaps the pointer, so lookups never
// block on planning (double buffering).
type plan struct {
	// revision is stamped by installPlan, just before publication.
	revision int64
	// flat is the plan in the engine's CandID space: over the engine's
	// instance or over an instance sharing its candidates (a session's
	// clone, whose q′ keep moving), so only membership bits and the
	// immutable candidate triples are ever read through it. strat, the
	// map-backed view of the same triples, is built from it at most
	// once, by the first caller that needs a Strategy; the serving path
	// never does.
	flat      *model.Plan
	strat     *model.Strategy
	stratOnce sync.Once
	// triples is the number of planned triples, kept beside the lazy
	// strategy so stats and metrics never force it.
	triples int
	// perUser[u] holds u's planned entries sorted by (t, item); k and T
	// are small, so binary search on t plus a short scan is O(log + k).
	perUser [][]planEntry
	// revenue is the expected residual revenue of the strategy at plan
	// time (Definition 2 on the residual instance).
	revenue float64
	// plannedFrom is the first time step the plan conditions on (the
	// engine clock when the plan was computed).
	plannedFrom model.TimeStep
	// installedAt is when the plan was published (installPlan) — the
	// base of the revmaxd_plan_staleness_seconds gauge.
	installedAt time.Time
}

// strategy returns the plan's map-backed strategy (do not mutate),
// materializing it from the flat plan on first use. Safe for concurrent
// callers.
func (p *plan) strategy() *model.Strategy {
	p.stratOnce.Do(func() { p.strat = p.flat.Strategy() })
	return p.strat
}

// buildPlanFlat indexes a candidate-indexed plan for serving. fp must
// address in's CandID space — a plan over in itself or over a clone of
// it (a core.Session's instance) — and is retained: the caller must not
// mutate it afterwards. Primitive probabilities are read from in, the
// *original* instance, not the residual one, because the serving path
// re-applies the observed saturation memory per request; storing
// residual q's would double-count it.
func buildPlanFlat(in *model.Instance, fp *model.Plan, from model.TimeStep, revenue float64) *plan {
	return &plan{
		flat:        fp,
		triples:     fp.Len(),
		perUser:     indexFlat(in, fp),
		revenue:     revenue,
		plannedFrom: from,
	}
}

// indexFlat emits the per-user serving entries of the candidates chosen
// in fp, reading item parameters, primitive probabilities and — at this
// moment, so a ScalePrice since the last build shows — prices from in.
// Only fp's membership bits are consulted, so fp may belong to any
// instance sharing in's CandID space.
func indexFlat(in *model.Instance, fp *model.Plan) [][]planEntry {
	perUser := make([][]planEntry, in.NumUsers)
	// One backing array for every user's entries: CandIDs ascend by user,
	// so each user's run is contiguous and is carved out as it completes.
	entries := make([]planEntry, 0, fp.Len())
	prev := model.UserID(-1)
	fp.Each(func(id model.CandID) bool {
		c := in.CandAt(id)
		if c.U != prev {
			// First entry of this user: walk the user's candidates in
			// (time, item) order and emit the chosen ones, so the
			// per-user slice comes out pre-sorted.
			prev = c.U
			lo := len(entries)
			for _, tid := range in.UserCandIDsByTime(c.U) {
				if !fp.Contains(tid) {
					continue
				}
				tc := in.CandAt(tid)
				entries = append(entries, planEntry{
					t:     tc.T,
					item:  tc.I,
					class: in.Class(tc.I),
					beta:  in.Beta(tc.I),
					q:     tc.Q,
					price: in.Price(tc.I, tc.T),
				})
			}
			perUser[c.U] = entries[lo:len(entries):len(entries)]
		}
		return true
	})
	return perUser
}

// entriesAt returns the planned entries for (u, t): a sub-slice of the
// immutable per-user index, found by binary search on t.
func (p *plan) entriesAt(u model.UserID, t model.TimeStep) []planEntry {
	if int(u) < 0 || int(u) >= len(p.perUser) {
		return nil
	}
	es := p.perUser[u]
	lo := sort.Search(len(es), func(i int) bool { return es[i].t >= t })
	hi := lo
	for hi < len(es) && es[hi].t == t {
		hi++
	}
	return es[lo:hi]
}
