package planner

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/solver"
	"repro/internal/store"
)

// ReplanConfig selects how a Replanner solves; serve.Config and
// cluster.Config carry the same four fields.
type ReplanConfig struct {
	// Algorithm names the registered solver; empty falls back to
	// Solver.Algorithm, then to solver.DefaultAlgorithm.
	Algorithm string
	// Solver carries the algorithm's options.
	Solver solver.Options
	// WarmStart seeds each replan with the last installed plan's
	// triples (solver.Options.Warm), or, with Incremental, makes the
	// session seed itself with its previous plan.
	WarmStart bool
	// Incremental replans through a persistent core.Session; it
	// requires g-greedy (solver.CheckSession).
	Incremental bool
}

// ServingOptions resolves cfg's algorithm (Algorithm over
// Solver.Algorithm) and checks that it can serve: it returns a
// candidate-indexed plan within every constraint (solver.CheckServable),
// its options suffice (solver.ValidateOptions), and, with Incremental,
// it can replan through a session (solver.CheckSession). Errors are
// solver's, unprefixed.
func ServingOptions(cfg ReplanConfig) (solver.Options, error) {
	opts := cfg.Solver
	if cfg.Algorithm != "" {
		opts.Algorithm = cfg.Algorithm
	}
	if err := solver.CheckServable(opts.Algorithm); err != nil {
		return opts, err
	}
	if err := solver.ValidateOptions(opts); err != nil {
		return opts, err
	}
	if cfg.Incremental {
		if err := solver.CheckSession(opts.Algorithm); err != nil {
			return opts, err
		}
	}
	return opts, nil
}

// Replanner is the serving replan step: it solves the residual problem
// of what a deployment has observed (Algorithm 1 of §5 on the remaining
// horizon, for the default g-greedy) and hands back a plan in the base
// instance's CandID space. It owns every choice about how that solve
// runs: the resolved algorithm, the warm seed, and the persistent
// core.Session of incremental replanning. A serving engine and a cluster
// coordinator replan through one each.
//
// A Replanner is not safe for concurrent use; its owner serializes
// every call (an engine runs one replan at a time, a coordinator
// replans under its barrier lock).
type Replanner struct {
	opts solver.Options
	warm bool
	incr bool
	// seed is the warm seed: the last installed plan's triples, kept
	// only in WarmStart mode until a session exists (a seeded session
	// keeps its own from then on).
	seed []model.Triple
	// sess is the incremental session, bootstrapped by the first Replan.
	sess *core.Session
	met  solveMeter
}

// Solved is one solve's outcome.
type Solved struct {
	// Result is the solver's, over the instance it solved: Plan is never
	// nil, and a failed solve leaves an empty plan and no revenue.
	solver.Result
	// Base is Plan in the base instance's CandID space: Plan itself
	// unless the solve ran on a residual instance.
	Base *model.Plan
}

// NewReplanner checks cfg (ServingOptions) and registers the solve and
// warm-start telemetry on reg.
func NewReplanner(cfg ReplanConfig, reg *obs.Registry) (*Replanner, error) {
	opts, err := ServingOptions(cfg)
	if err != nil {
		return nil, err
	}
	return &Replanner{opts: opts, warm: cfg.WarmStart, incr: cfg.Incremental, met: newSolveMeter(reg)}, nil
}

// Journals reports whether Replan consumes a journal of the mutation
// records applied since the last replan (Incremental mode). It is fixed
// at construction, so any goroutine may ask; a nil Replanner (an
// install-only engine's) journals nothing.
func (r *Replanner) Journals() bool { return r != nil && r.incr }

// FullView reports whether the next Replan needs a full Feedback view:
// always on the residual path, and on the incremental path until the
// session exists.
func (r *Replanner) FullView() bool { return r.sess == nil }

// Session returns the incremental session, nil before the first
// incremental replan.
func (r *Replanner) Session() *core.Session { return r.sess }

// Seed makes fp's triples the next replan's warm seed, as if fp had
// just been solved; a restored engine seeds with its snapshotted plan.
func (r *Replanner) Seed(fp *model.Plan) {
	if r.warm && r.sess == nil {
		r.seed = fp.Triples()
	}
}

// Apply journals one applied mutation record into the session (no-op
// before it exists). Clock advances are skipped: Replan stamps the
// session with its view's clock.
func (r *Replanner) Apply(rec store.Record) {
	if r.sess == nil {
		return
	}
	switch rec.Type {
	case store.RecEvent:
		r.sess.Observe(model.UserID(rec.User), model.ItemID(rec.Item), model.TimeStep(rec.T), rec.Adopted)
	case store.RecSetStock:
		r.sess.SetStock(model.ItemID(rec.Item), int(rec.Stock))
	case store.RecScalePrice:
		r.sess.ScalePrice(model.ItemID(rec.Item), model.TimeStep(rec.T), rec.Factor)
	}
}

// Boot solves base as is, with no feedback: the first plan, the one a
// one-shot solve of the instance gives.
func (r *Replanner) Boot(base *model.Instance, span *obs.Span) Solved {
	return r.solve(base, base, span)
}

// Replan solves the residual problem fb induces on base. On the
// residual path it builds Residual(base, fb) and solves it, warm-seeded
// in WarmStart mode. On the incremental path the first Replan
// bootstraps the session from fb (and the warm seed); later ones bring
// it up to date from a full view (fb.Users non-nil) or, when fb carries
// only the clock, from delta and then fb.Now. Both paths give the same
// plan. The build or sync is timed as the phase child of span (named
// "residual" or "delta-sync" when phase is empty), the solve as its
// "solve" child, and an incremental solve's session stats land on span.
func (r *Replanner) Replan(base *model.Instance, fb Feedback, delta []store.Record, span *obs.Span, phase string) Solved {
	if phase == "" {
		phase = "residual"
		if r.incr {
			phase = "delta-sync"
		}
	}
	psp := span.Child(phase)
	x := base
	switch {
	case !r.incr:
		x = Residual(base, fb)
	case r.sess == nil:
		r.sess = core.NewSession(base, core.SessionConfig{Seeded: r.warm, MaxExposures: model.MaxExposuresPerClass})
		r.sess.LoadFeedback(fb.Users, fb.Stock, fb.Now)
		if r.warm && len(r.seed) > 0 {
			r.sess.SeedTriples(r.seed)
		}
		r.seed = nil
	case fb.Users != nil:
		r.sess.LoadFeedback(fb.Users, fb.Stock, fb.Now)
	default:
		for _, rec := range delta {
			r.Apply(rec)
		}
		r.sess.Advance(fb.Now)
	}
	psp.End()
	s := r.solve(base, x, span)
	if r.sess != nil {
		st := r.sess.LastStats()
		span.SetInt("dirty_cands", int64(st.DirtyCands))
		span.SetInt("restored_pairs", int64(st.RestoredPairs))
		span.SetInt("unwound_cands", int64(st.UnwoundCands))
		span.SetInt("replayed_groups", int64(st.ReplayedGroups))
	}
	return s
}

// solve runs the algorithm on x (ignored when a session carries its own
// instance), counts it, falls back to an empty plan on failure, and
// keeps the plan's triples as the next warm seed.
func (r *Replanner) solve(base, x *model.Instance, span *obs.Span) Solved {
	o := r.opts
	o.Span = span
	if r.sess != nil {
		o.Session = r.sess
	} else if r.warm {
		o.Warm = r.seed
	}
	start := time.Now()
	res, err := solver.Solve(context.Background(), x, o)
	r.met.observe(res, err, time.Since(start))
	if err != nil || res.Plan == nil {
		res = solver.Result{Plan: base.NewPlan()}
	}
	s := Solved{Result: res, Base: res.Plan}
	if px := res.Plan.Instance(); px != base && (r.sess == nil || px != r.sess.Instance()) {
		s.Base = base.NewPlan()
		for _, id := range base.BaseIDs(res.Plan) {
			s.Base.Add(id)
		}
	}
	r.Seed(s.Base)
	return s
}

// solveMeter is the solve and warm-start telemetry of whoever solves.
type solveMeter struct {
	sec                                       *obs.Histogram
	selections, recomputations, pops, scanned *obs.Counter
	warmKept, warmDropped, failures           *obs.Counter
}

func newSolveMeter(reg *obs.Registry) solveMeter {
	m := solveMeter{
		sec: reg.Histogram("revmaxd_solve_seconds",
			"Solver time per solve (initial plan and replans).", obs.LatencyBuckets()),
		selections: reg.Counter("revmaxd_solve_selections_total",
			"Triples selected across all solves."),
		recomputations: reg.Counter("revmaxd_solve_recomputations_total",
			"Lazy marginal-gain re-evaluations across all solves."),
		pops: reg.Counter("revmaxd_solve_heap_pops_total",
			"Candidate-heap pops across all solves."),
		scanned: reg.Counter("revmaxd_solve_candidates_scanned_total",
			"Candidates scanned when building solve heaps."),
		warmKept: reg.Counter("revmaxd_warm_seeds_kept_total",
			"Warm-start seed triples still feasible and kept."),
		warmDropped: reg.Counter("revmaxd_warm_seeds_dropped_total",
			"Warm-start seed triples invalidated and dropped."),
		failures: reg.Counter("revmaxd_solve_failures_total",
			"Solves that errored or returned no strategy (plan degraded to empty)."),
	}
	reg.GaugeFunc("revmaxd_warm_hit_rate",
		"Fraction of warm-start seeds kept across all solves (0 when cold).",
		func() float64 {
			kept, dropped := m.warmKept.Value(), m.warmDropped.Value()
			if total := kept + dropped; total > 0 {
				return float64(kept) / float64(total)
			}
			return 0
		})
	return m
}

func (m solveMeter) observe(res solver.Result, err error, d time.Duration) {
	m.sec.Observe(d.Seconds())
	m.selections.Add(int64(res.Selections))
	m.recomputations.Add(int64(res.Recomputations))
	st := res.Stats
	m.pops.Add(int64(st.HeapPops))
	m.scanned.Add(int64(st.Considered))
	m.warmKept.Add(int64(st.WarmKept))
	m.warmDropped.Add(int64(st.WarmDropped))
	if err != nil || (res.Strategy == nil && res.Plan == nil) {
		m.failures.Inc()
	}
}
