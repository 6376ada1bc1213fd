package core

import (
	"context"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/revenue"
	"repro/internal/testgen"
)

// refWorld is the from-scratch reference a Session is checked against:
// a price-evolved clone of the base instance plus the Feedback-shaped
// state a serving engine would accumulate, with the engine's exact
// event semantics (exposure cap with drop-oldest eviction, adopt-once
// per (user, class), stock floored at zero). residual() rebuilds
// planner.Residual's construction verbatim — duplicated here because
// core cannot import planner (planner imports core).
type refWorld struct {
	base      *model.Instance
	adopted   map[model.UserID]map[model.ClassID]bool
	exposures map[model.UserID]map[model.ClassID][]model.TimeStep
	stock     []int
	now       model.TimeStep
	maxExp    int
}

func newRefWorld(in *model.Instance, maxExp int) *refWorld {
	w := &refWorld{
		base:      in.Clone(),
		adopted:   map[model.UserID]map[model.ClassID]bool{},
		exposures: map[model.UserID]map[model.ClassID][]model.TimeStep{},
		stock:     make([]int, in.NumItems()),
		now:       1,
		maxExp:    maxExp,
	}
	for i := range w.stock {
		w.stock[i] = in.Capacity(model.ItemID(i))
	}
	return w
}

func (w *refWorld) observe(u model.UserID, i model.ItemID, t model.TimeStep, adopted bool) {
	c := w.base.Class(i)
	um := w.exposures[u]
	if um == nil {
		um = map[model.ClassID][]model.TimeStep{}
		w.exposures[u] = um
	}
	ts := um[c]
	if w.maxExp > 0 && len(ts) >= w.maxExp {
		copy(ts, ts[1:])
		ts[len(ts)-1] = t
	} else {
		ts = append(ts, t)
	}
	um[c] = ts
	if !adopted {
		return
	}
	am := w.adopted[u]
	if am == nil {
		am = map[model.ClassID]bool{}
		w.adopted[u] = am
	}
	if am[c] {
		return
	}
	am[c] = true
	if w.stock[i] > 0 {
		w.stock[i]--
	}
}

func (w *refWorld) setStock(i model.ItemID, n int) { w.stock[i] = n }

// users converts the oracle's maps into the dense, class-sorted form
// Session.LoadFeedback takes.
func (w *refWorld) users() []model.UserFeedback {
	out := make([]model.UserFeedback, w.base.NumUsers)
	for u, cs := range w.adopted {
		for c := range cs {
			out[u].Adopted = append(out[u].Adopted, c)
		}
		slices.Sort(out[u].Adopted)
	}
	for u, cs := range w.exposures {
		for c, ts := range cs {
			out[u].Exposed = append(out[u].Exposed, model.ClassExposures{Class: c, Times: slices.Clone(ts)})
		}
		slices.SortFunc(out[u].Exposed, func(a, b model.ClassExposures) int { return int(a.Class) - int(b.Class) })
	}
	return out
}

func (w *refWorld) scalePrice(i model.ItemID, from model.TimeStep, factor float64) {
	if from < 1 {
		from = 1
	}
	for t := from; int(t) <= w.base.T; t++ {
		w.base.SetPrice(i, t, w.base.Price(i, t)*factor)
	}
}

func (w *refWorld) advance(t model.TimeStep) {
	if t < 1 {
		t = 1
	}
	w.now = t
}

// residual replicates planner.Residual(base, feedback) exactly, using
// the same shared saturation kernels so the floats agree bit-for-bit.
func (w *refWorld) residual() *model.Instance {
	now := w.now
	if now < 1 {
		now = 1
	}
	in := w.base
	res := model.NewInstance(in.NumUsers, in.NumItems(), in.T, in.K)
	for i := 0; i < in.NumItems(); i++ {
		id := model.ItemID(i)
		cap := w.stock[i]
		if cap < 0 {
			cap = 0
		}
		res.SetItem(id, in.Class(id), in.Beta(id), cap)
		for t := 1; t <= in.T; t++ {
			res.SetPrice(id, model.TimeStep(t), in.Price(id, model.TimeStep(t)))
		}
	}
	for u := 0; u < in.NumUsers; u++ {
		uid := model.UserID(u)
		for _, cand := range in.UserCandidates(uid) {
			if cand.T < now {
				continue
			}
			c := in.Class(cand.I)
			if w.adopted[uid][c] {
				continue
			}
			if w.stock[cand.I] <= 0 {
				continue
			}
			q := model.Discount(cand.Q, in.Beta(cand.I), model.SaturationMemory(w.exposures[uid][c], cand.T))
			if q > 0 {
				res.AddCandidate(uid, cand.I, cand.T, q)
			}
		}
	}
	res.FinishCandidates()
	return res
}

// randomEvent applies one random feedback event to the session and the
// reference world identically.
func randomEvent(rng *dist.RNG, sess *Session, w *refWorld) {
	switch rng.Intn(10) {
	case 0, 1, 2, 3, 4, 5:
		id := model.CandID(rng.Intn(w.base.NumCands()))
		c := w.base.CandAt(id)
		ad := rng.Intn(3) == 0
		sess.Observe(c.U, c.I, c.T, ad)
		w.observe(c.U, c.I, c.T, ad)
	case 6:
		i := model.ItemID(rng.Intn(w.base.NumItems()))
		n := rng.Intn(6) - 1 // -1..4: exercises depletion and revival
		sess.SetStock(i, n)
		w.setStock(i, n)
	case 7:
		i := model.ItemID(rng.Intn(w.base.NumItems()))
		from := model.TimeStep(1 + rng.Intn(w.base.T))
		factor := rng.Uniform(0.25, 1.75)
		if rng.Intn(8) == 0 {
			factor = 0 // reprice to worthless
		}
		sess.ScalePrice(i, from, factor)
		w.scalePrice(i, from, factor)
	case 8:
		t := w.now + model.TimeStep(1+rng.Intn(2))
		sess.Advance(t)
		w.advance(t)
	case 9:
		// Re-observation of an already-exposed candidate (saturation
		// stacking on one group).
		id := model.CandID(rng.Intn(w.base.NumCands()))
		c := w.base.CandAt(id)
		sess.Observe(c.U, c.I, c.T, false)
		w.observe(c.U, c.I, c.T, false)
	}
}

// solveChecked runs one session solve and checks what every session
// result promises beyond the selection itself, looking inside the session:
//
//   - the map-backed Strategy is left unbuilt, Curve is nil and Revenue is
//     the carried CanonicalRevenue;
//   - CanonicalRevenue equals a from-scratch revenue.Revenue of the plan on
//     the session's instance bit for bit — after any journal, not only on a
//     cold solve;
//   - the live plan the next solve seeds from is the plan handed out, and
//     the live evaluator holds exactly its candidates;
//   - every group's evaluator partial is bit-equal to a fresh evaluator
//     loaded with the final plan — a group the partial unwind wrongly left
//     in place would keep a partial computed from stale q′ or prices.
//
// It hands the result back with Strategy materialized so callers can
// compare triples.
func solveChecked(t *testing.T, sess *Session) Result {
	t.Helper()
	best, reported := 0.0, false
	res, _ := sess.SolveCtx(context.Background(), func(p Progress) { best, reported = p.Best, true })
	checkSessionResult(t, sess, res)
	// Progress.Best restarts from the canonical total every solve, so its
	// last reading is off by this scan's rounding only.
	if reported && math.Abs(best-res.CanonicalRevenue) > 1e-10*math.Abs(res.CanonicalRevenue) {
		t.Fatalf("last Progress.Best %.17g strays from CanonicalRevenue %.17g", best, res.CanonicalRevenue)
	}
	res.Strategy = res.Plan.Strategy()
	return res
}

func checkSessionResult(t *testing.T, sess *Session, res Result) {
	t.Helper()
	if res.Strategy != nil {
		t.Fatal("session solve materialized Result.Strategy")
	}
	if res.Curve != nil {
		t.Fatalf("session solve recorded a %d-point curve", len(res.Curve))
	}
	if math.Float64bits(res.Revenue) != math.Float64bits(res.CanonicalRevenue) {
		t.Fatalf("session Revenue %.17g is not CanonicalRevenue %.17g", res.Revenue, res.CanonicalRevenue)
	}
	if want := revenue.Revenue(sess.Instance(), res.Plan.Strategy()); math.Float64bits(res.CanonicalRevenue) != math.Float64bits(want) {
		t.Fatalf("carried revenue %.17g is not revenue.Revenue %.17g bit for bit (%d triples)",
			res.CanonicalRevenue, want, res.Plan.Len())
	}
	live, ev := sess.st.p, sess.st.ev
	if live == res.Plan {
		t.Fatal("session handed out its live plan, not a copy")
	}
	if ev.Len() != live.Len() {
		t.Fatalf("live evaluator holds %d candidates, live plan %d", ev.Len(), live.Len())
	}
	if err := live.Valid(); err != nil {
		t.Fatalf("live plan invalid: %v", err)
	}
	fresh := revenue.NewEvaluator(sess.in)
	for id := model.CandID(0); int(id) < sess.in.NumCands(); id++ {
		if live.Contains(id) != res.Plan.Contains(id) {
			t.Fatalf("cand %d: live plan membership %v, result plan %v", id, live.Contains(id), res.Plan.Contains(id))
		}
		if live.Contains(id) {
			fresh.AddID(id)
		}
	}
	for g := int32(0); int(g) < sess.in.NumGroups(); g++ {
		if got, want := ev.GroupPartial(g), fresh.GroupPartial(g); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("group %d: live partial %.17g, fresh evaluator %.17g", g, got, want)
		}
	}
}

// assertSameSolve demands the oracle's output: triples, carried canonical
// revenue bits, selection count, and warm seed accounting.
func assertSameSolve(t *testing.T, tag string, got, want Result) {
	t.Helper()
	gt, wt := got.Strategy.Triples(), want.Strategy.Triples()
	if len(gt) != len(wt) {
		t.Fatalf("%s: plan sizes differ: session %d vs scratch %d", tag, len(gt), len(wt))
	}
	for i := range gt {
		if gt[i] != wt[i] {
			t.Fatalf("%s: plans diverge at %d: session %v vs scratch %v", tag, i, gt[i], wt[i])
		}
	}
	if math.Float64bits(got.CanonicalRevenue) != math.Float64bits(want.CanonicalRevenue) {
		t.Fatalf("%s: carried revenue bits differ: session %.17g vs scratch %.17g", tag, got.CanonicalRevenue, want.CanonicalRevenue)
	}
	if got.Selections != want.Selections {
		t.Fatalf("%s: selections differ: session %d vs scratch %d", tag, got.Selections, want.Selections)
	}
	if got.Stats.WarmKept != want.Stats.WarmKept || got.Stats.WarmDropped != want.Stats.WarmDropped {
		t.Fatalf("%s: warm accounting differs: session %d/%d vs scratch %d/%d",
			tag, got.Stats.WarmKept, got.Stats.WarmDropped, want.Stats.WarmKept, want.Stats.WarmDropped)
	}
}

// TestSessionUnseededMatchesCold: an unseeded session replan after any
// event journal is byte-identical to a cold GGreedy on the from-scratch
// residual instance.
func TestSessionUnseededMatchesCold(t *testing.T) {
	for _, seed := range []uint64{3, 11, 29} {
		in := warmInstance(t, seed)
		sess := NewSession(in, SessionConfig{MaxExposures: 3})
		w := newRefWorld(in, 3)
		rng := dist.NewRNG(seed * 977)
		for round := 0; round < 18; round++ {
			for e, n := 0, rng.Intn(7); e < n; e++ {
				randomEvent(rng, sess, w)
			}
			got := solveChecked(t, sess)
			want := GGreedy(w.residual())
			assertSameSolve(t, "unseeded", got, want)
		}
	}
}

// TestSessionSeededMatchesWarm: a seeded session replan is
// byte-identical to GGreedyWarm on the from-scratch residual, seeded
// with the previous round's plan — the exact serving-engine warm-start
// loop, replayed incrementally.
func TestSessionSeededMatchesWarm(t *testing.T) {
	for _, seed := range []uint64{5, 17, 41} {
		in := warmInstance(t, seed)
		sess := NewSession(in, SessionConfig{Seeded: true, MaxExposures: 3})
		w := newRefWorld(in, 3)
		rng := dist.NewRNG(seed*1303 + 7)
		var prev []model.Triple
		for round := 0; round < 18; round++ {
			for e, n := 0, rng.Intn(7); e < n; e++ {
				randomEvent(rng, sess, w)
			}
			got := solveChecked(t, sess)
			want := GGreedyWarm(w.residual(), prev)
			assertSameSolve(t, "seeded", got, want)
			if res := w.residual(); res.CheckValid(got.Strategy) != nil {
				t.Fatalf("session plan invalid on residual: %v", res.CheckValid(got.Strategy))
			}
			prev = want.Strategy.Triples()
		}
	}
}

// TestSessionEmptyJournalFixpoint: with no events between replans, a
// seeded session keeps returning the identical plan, and the dirty
// counter stays at zero — the invariant behind the <5%-touched gate.
// The first replan replays every group (the boot scan selected all of
// them in greedy order); from then on an empty journal unwinds nothing.
func TestSessionEmptyJournalFixpoint(t *testing.T) {
	in := warmInstance(t, 23)
	sess := NewSession(in, SessionConfig{Seeded: true, MaxExposures: 3})
	first := solveChecked(t, sess)
	for round := 0; round < 3; round++ {
		again := solveChecked(t, sess)
		st := sess.LastStats()
		if st.DirtyCands != 0 {
			t.Fatalf("empty journal dirtied %d candidates", st.DirtyCands)
		}
		if round == 0 && st.UnwoundCands != first.Plan.Len() {
			t.Fatalf("first replan unwound %d of the %d candidates the boot scan selected", st.UnwoundCands, first.Plan.Len())
		}
		if round > 0 && (st.UnwoundCands != 0 || st.ReplayedGroups != 0) {
			t.Fatalf("round %d: empty journal after a steady-state solve unwound %d candidates in %d groups",
				round, st.UnwoundCands, st.ReplayedGroups)
		}
		gt, wt := again.Strategy.Triples(), first.Strategy.Triples()
		if len(gt) != len(wt) {
			t.Fatalf("fixpoint drifted: %d vs %d selections", len(gt), len(wt))
		}
		for i := range gt {
			if gt[i] != wt[i] {
				t.Fatalf("fixpoint drifted at %d: %v vs %v", i, gt[i], wt[i])
			}
		}
		if math.Float64bits(again.Revenue) != math.Float64bits(first.Revenue) {
			t.Fatalf("fixpoint revenue drifted: %.17g vs %.17g", again.Revenue, first.Revenue)
		}
	}
}

// TestSessionLoadFeedbackReconciles: LoadFeedback diffs the session
// against an external Feedback view in both directions — a session that
// has applied MORE events than the view (the kill-9 shape: applied but
// unlogged tail) must roll back and match a scratch solve of the view.
func TestSessionLoadFeedbackReconciles(t *testing.T) {
	in := warmInstance(t, 31)
	sess := NewSession(in, SessionConfig{Seeded: true, MaxExposures: 3})
	w := newRefWorld(in, 3)
	rng := dist.NewRNG(4242)

	// Durable prefix: both sides see it.
	for e := 0; e < 12; e++ {
		randomEvent(rng, sess, w)
	}
	prev := solveChecked(t, sess).Strategy.Triples()

	// Lost tail: only the session sees these (they died with the crash).
	lost := newRefWorld(in, 3) // sink for the reference side of the tail
	lost.base = w.base         // share the price state so scaling stays aligned
	lost.stock = w.stock
	lost.now = w.now
	for e := 0; e < 9; e++ {
		randomEvent(rng, sess, lost)
	}
	// Price rescales and stock writes are durable in the real engine
	// (WAL'd synchronously), so the reference world legitimately kept
	// them via the shared base/stock; exposures/adoptions in `lost` are
	// the discarded part.

	// Recovery: reconcile against the durable view and re-seed with the
	// last installed plan.
	sess.LoadFeedback(w.users(), w.stock, w.now)
	sess.SeedTriples(prev)
	got := solveChecked(t, sess)
	want := GGreedyWarm(w.residual(), prev)
	assertSameSolve(t, "reconcile", got, want)

	// And the session keeps working incrementally after the reconcile.
	for e := 0; e < 6; e++ {
		randomEvent(rng, sess, w)
	}
	got = solveChecked(t, sess)
	want = GGreedyWarm(w.residual(), want.Strategy.Triples())
	assertSameSolve(t, "post-reconcile", got, want)
}

// TestSessionSeedTriplesBootstrap: a fresh session seeded with an
// externally supplied warm plan behaves exactly like GGreedyWarm — the
// engine-restart bootstrap path.
func TestSessionSeedTriplesBootstrap(t *testing.T) {
	in := warmInstance(t, 37)
	seeds := GGreedy(in).Strategy.Triples()
	sess := NewSession(in, SessionConfig{Seeded: true, MaxExposures: 3})
	sess.SeedTriples(seeds)
	got := solveChecked(t, sess)
	want := GGreedyWarm(in, seeds)
	assertSameSolve(t, "bootstrap", got, want)
}

// TestSessionCancel: a canceled incremental solve returns ctx's error
// and leaves the session consistent — the next solve still matches the
// from-scratch reference. Canceled before the scan starts, and canceled
// mid-scan: the partial plan's members entered in greedy order, so the
// next solve must replay their groups even though no journal event names
// them, and must keep doing so across further events.
func TestSessionCancel(t *testing.T) {
	in := warmInstance(t, 43)
	sess := NewSession(in, SessionConfig{Seeded: true, MaxExposures: 3})
	w := newRefWorld(in, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.SolveCtx(ctx, nil); err == nil {
		t.Fatal("canceled solve returned nil error")
	}
	got := solveChecked(t, sess)
	want := GGreedyWarm(w.residual(), nil)
	assertSameSolve(t, "post-cancel", got, want)

	for _, seed := range []uint64{43, 47, 59} {
		in := warmInstance(t, seed)
		sess := NewSession(in, SessionConfig{Seeded: true, MaxExposures: 3})
		w := newRefWorld(in, 3)
		rng := dist.NewRNG(seed * 31)
		ctx, cancel := context.WithCancel(context.Background())
		partial, err := sess.SolveCtx(ctx, func(p Progress) {
			if p.Done == 25 {
				cancel()
			}
		})
		if err == nil || partial.Plan.Len() != 25 {
			t.Fatalf("mid-scan cancel: err %v, %d selections", err, partial.Plan.Len())
		}
		checkSessionResult(t, sess, partial)
		prev := partial.Plan.Triples()
		for round := 0; round < 4; round++ {
			for e := 0; e < 5; e++ {
				randomEvent(rng, sess, w)
			}
			got := solveChecked(t, sess)
			want := GGreedyWarm(w.residual(), prev)
			assertSameSolve(t, "post-mid-scan-cancel", got, want)
			prev = want.Strategy.Triples()
		}
	}
}

// TestSessionStockCutBelowRecipients: a stock override that stays
// positive dirties no candidate — it only queues a capacity sync — yet
// cutting a saturated item below its planned recipients must drop seeds,
// and which ones is decided by replay order: GGreedyWarm re-admits
// recipients in ascending CandID order until the new capacity is used up.
// The session must unwind every planned group on the item and replay
// them in that order, not the ones the journal named (none).
func TestSessionStockCutBelowRecipients(t *testing.T) {
	cuts := 0
	for _, seed := range []uint64{7, 19, 53, 61} {
		in := warmInstance(t, seed)
		sess := NewSession(in, SessionConfig{Seeded: true, MaxExposures: 3})
		w := newRefWorld(in, 3)
		solveChecked(t, sess)
		prev := solveChecked(t, sess) // steady state: every group seeded canonically
		for i := 0; i < in.NumItems(); i++ {
			item := model.ItemID(i)
			n := sess.st.p.ItemUsers(item)
			if n < 2 || n != sess.in.Capacity(item) {
				continue
			}
			sess.SetStock(item, n-1)
			w.setStock(item, n-1)
			if d := len(sess.dirtyList); d != 0 {
				t.Fatalf("positive stock cut dirtied %d candidates", d)
			}
			got := solveChecked(t, sess)
			want := GGreedyWarm(w.residual(), prev.Strategy.Triples())
			assertSameSolve(t, "stock-cut", got, want)
			if want.Stats.WarmDropped == 0 {
				t.Fatalf("seed %d item %d: cut to %d of %d recipients dropped no seed", seed, i, n-1, n)
			}
			st := sess.LastStats()
			if st.UnwoundCands == 0 || st.UnwoundCands >= prev.Plan.Len() {
				t.Fatalf("seed %d item %d: unwound %d of %d planned candidates", seed, i, st.UnwoundCands, prev.Plan.Len())
			}
			prev = got
			cuts++
		}
	}
	if cuts == 0 {
		t.Fatal("no instance had a saturated item with two planned recipients")
	}
}

// FuzzSessionInvalidation drives random event journals (observation /
// adoption / stock / price / clock interleavings) into a session and
// checks the two safety properties of CandID-level invalidation:
//
//  1. The dirty set is a superset of the candidates whose q′ or
//     aliveness actually changed — a candidate the journal should have
//     invalidated but didn't would silently serve a stale bound.
//  2. The incremental solve is byte-identical to a from-scratch solve
//     of the equivalent residual instance, carried revenue included —
//     for a seeded session (plan unwind and re-seeding) and for an
//     unseeded one fed the same journal.
func FuzzSessionInvalidation(f *testing.F) {
	f.Add(uint64(1), []byte{0x00, 0x41, 0x9c, 0x07})
	f.Add(uint64(9), []byte{0xff, 0x13, 0x22, 0x31, 0x40, 0x55, 0x68, 0x77})
	f.Add(uint64(12), []byte{0x60, 0x61, 0x62, 0x63, 0x64, 0x70, 0x80})
	f.Fuzz(func(t *testing.T, seed uint64, journal []byte) {
		if len(journal) > 256 {
			journal = journal[:256]
		}
		in := testgen.Random(dist.NewRNG(seed%64+1), testgen.Params{
			Users: 12, Items: 6, Classes: 3, T: 4, K: 2,
			MaxCap: 3, CandProb: 0.5, MinPrice: 1, MaxPrice: 50,
		})
		if err := in.Validate(); err != nil || in.NumCands() == 0 {
			t.Skip()
		}
		sess := NewSession(in, SessionConfig{Seeded: true, MaxExposures: 2})
		cold := NewSession(in, SessionConfig{MaxExposures: 2})
		both := []*Session{sess, cold}
		w := newRefWorld(in, 2)
		var prev []model.Triple
		pos := 0
		next := func() byte {
			if pos >= len(journal) {
				return 0
			}
			b := journal[pos]
			pos++
			return b
		}
		for pos < len(journal) {
			for n := int(next()%5) + 1; n > 0 && pos < len(journal); n-- {
				b := next()
				switch b % 8 {
				case 0, 1, 2, 3:
					id := model.CandID(int(next()) % in.NumCands())
					c := in.CandAt(id)
					ad := b%8 == 0
					for _, s := range both {
						s.Observe(c.U, c.I, c.T, ad)
					}
					w.observe(c.U, c.I, c.T, ad)
				case 4:
					i := model.ItemID(int(next()) % in.NumItems())
					n := int(next())%5 - 1
					for _, s := range both {
						s.SetStock(i, n)
					}
					w.setStock(i, n)
				case 5:
					i := model.ItemID(int(next()) % in.NumItems())
					from := model.TimeStep(int(next())%in.T + 1)
					factor := float64(int(next())%8) / 4.0 // 0..1.75 in quarters
					for _, s := range both {
						s.ScalePrice(i, from, factor)
					}
					w.scalePrice(i, from, factor)
				case 6:
					t := w.now + model.TimeStep(int(next())%2+1)
					for _, s := range both {
						s.Advance(t)
					}
					w.advance(t)
				case 7:
					// burst of exposures on one group
					id := model.CandID(int(next()) % in.NumCands())
					c := in.CandAt(id)
					for k := 0; k < 3; k++ {
						for _, s := range both {
							s.Observe(c.U, c.I, c.T, false)
						}
						w.observe(c.U, c.I, c.T, false)
					}
				}
			}
			assertDirtySuperset(t, sess)
			assertDirtySuperset(t, cold)
			res := w.residual()
			want := GGreedyWarm(res, prev)
			assertSameSolve(t, "fuzz", solveChecked(t, sess), want)
			assertSameSolve(t, "fuzz unseeded", solveChecked(t, cold), GGreedy(res))
			prev = want.Strategy.Triples()
		}
	})
}

// assertDirtySuperset recomputes every candidate's q′ and aliveness from
// the session's feedback state and fails if the session's instance q′ or
// aliveness differs from it for a candidate outside the pending dirty
// set. Runs with internal access, before Solve consumes the journal.
func assertDirtySuperset(t *testing.T, s *Session) {
	t.Helper()
	for id := 0; id < len(s.entries); id++ {
		cid := model.CandID(id)
		c := s.in.CandAt(cid)
		f, cl := &s.users[c.U], s.in.Class(c.I)
		q := s.base.CandAt(cid).Q
		if q > 0 {
			q = model.Discount(q, s.in.Beta(c.I), model.SaturationMemory(f.Exposures(cl), c.T))
		}
		alive := c.T >= s.now && !f.HasAdopted(cl) && s.stock[c.I] > 0 && q > 0
		if (math.Float64bits(q) != math.Float64bits(c.Q) || alive != s.alive[id]) && !s.dirtySeen[id] {
			t.Fatalf("cand %d (%v) stale but not dirty: q′ %.17g→%.17g alive %v→%v",
				id, c.Triple, c.Q, q, s.alive[id], alive)
		}
	}
}

// TestSessionFootprint bounds the heap a session retains per candidate:
// everything NewSession allocates beyond the instance it is given (the
// instance clone, heap, plan, evaluator and journal state), measured
// after a GC on a fixed fixture of 19 923 candidates. Measured: 197.9 B
// per candidate with 56-byte heap entries, 24-byte evaluator entries and
// cached primitive q, p·q′ and per-step candidate lists; 131.7 B with
// 24-byte heap entries, 16-byte evaluator entries and no such caches.
func TestSessionFootprint(t *testing.T) {
	in := testgen.Random(dist.NewRNG(7), testgen.Params{
		Users: 800, Items: 25, Classes: 5, T: 5, K: 2,
		MaxCap: 50, CandProb: 0.2, MinPrice: 1, MaxPrice: 100,
	})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sess := NewSession(in, SessionConfig{Seeded: true, MaxExposures: 64})
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(sess)
	perCand := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(in.NumCands())
	t.Logf("%d candidates, %.1f B retained per candidate", in.NumCands(), perCand)
	const limit = 140
	if perCand > limit {
		t.Fatalf("session retains %.1f B per candidate, want ≤ %d", perCand, limit)
	}
}

// TestSessionExposureDirtiesOnlyLaterSteps pins the exact fan-out of one
// exposure: saturation memory at τ reaches only steps strictly after τ,
// so in a group with candidates at t = 1, 2, 3 an exposure at τ = 2
// dirties exactly the t = 3 candidate.
func TestSessionExposureDirtiesOnlyLaterSteps(t *testing.T) {
	in := model.NewInstance(1, 1, 3, 1)
	in.SetItem(0, 0, 0.5, 1)
	for ts := model.TimeStep(1); ts <= 3; ts++ {
		in.SetPrice(0, ts, 10)
		in.AddCandidate(0, 0, ts, 0.5)
	}
	in.FinishCandidates()
	sess := NewSession(in, SessionConfig{Seeded: true, MaxExposures: 3})
	sess.Solve()
	sess.Observe(0, 0, 2, false)
	sess.Solve()
	if got := sess.LastStats().DirtyCands; got != 1 {
		t.Fatalf("an exposure at τ=2 dirtied %d candidates, want 1 (the t=3 one)", got)
	}
}
