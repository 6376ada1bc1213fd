package planner_test

import (
	"bytes"
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/solver"
	"repro/internal/store"
	"repro/internal/testgen"
)

func replanInstance(t *testing.T) *model.Instance {
	t.Helper()
	in := testgen.Random(dist.NewRNG(7), testgen.Params{
		Users: 40, Items: 8, Classes: 4, T: 5, K: 2,
		MaxCap: 5, CandProb: 0.5, MinPrice: 1, MaxPrice: 100,
	})
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	return in
}

// replanRun drives one Replanner the way its owners do — an engine
// hands it the mutation journal once a session exists, a coordinator a
// full view every time — beside an oracle that solves Residual from
// scratch, warm-seeded with its own previous plan in WarmStart mode.
type replanRun struct {
	t        *testing.T
	in       *model.Instance // rescaled in place, as an engine's instance is
	rp       *planner.Replanner
	warm     bool
	fullView bool
	fb       planner.Feedback
	delta    []store.Record
	prev     []model.Triple // the oracle's last plan: its warm seed
}

// record applies one mutation record to the run's state, as an engine
// applies it, and journals it.
func (r *replanRun) record(rec store.Record) {
	switch rec.Type {
	case store.RecEvent:
		item := model.ItemID(rec.Item)
		first, _ := r.fb.Users[rec.User].Observe(r.in.Class(item), model.TimeStep(rec.T), rec.Adopted, model.MaxExposuresPerClass)
		if first && r.fb.Stock[item] > 0 {
			r.fb.Stock[item]--
		}
	case store.RecSetStock:
		r.fb.Stock[rec.Item] = int(rec.Stock)
	case store.RecScalePrice:
		r.in.ScalePrice(model.ItemID(rec.Item), model.TimeStep(rec.T), rec.Factor)
		if r.fullView {
			// A coordinator applies a rescale to the session at once.
			r.rp.Apply(rec)
			return
		}
	case store.RecAdvance:
		r.fb.Now = model.TimeStep(rec.T)
	}
	r.delta = append(r.delta, rec)
}

// replan runs one replan and holds its plan and revenue to the oracle's.
func (r *replanRun) replan(step string) {
	r.t.Helper()
	fb, delta := planner.Feedback{Now: r.fb.Now}, r.delta
	if r.fullView || r.rp.FullView() {
		fb = planner.Feedback{Users: model.CloneUsers(r.fb.Users), Stock: slices.Clone(r.fb.Stock), Now: r.fb.Now}
		delta = nil
	}
	r.delta = nil
	got := r.rp.Replan(r.in, fb, delta, nil, "")
	o := solver.Options{}
	if r.warm {
		o.Warm = r.prev
	}
	want, err := solver.Solve(context.Background(), planner.Residual(r.in, r.fb), o)
	if err != nil {
		r.t.Fatalf("%s: oracle solve: %v", step, err)
	}
	r.check(step, got, want)
}

func (r *replanRun) check(step string, got planner.Solved, want solver.Result) {
	r.t.Helper()
	if x := got.Base.Instance(); x.NumCands() != r.in.NumCands() {
		r.t.Fatalf("%s: Base has %d candidates, the base instance %d", step, x.NumCands(), r.in.NumCands())
	}
	if g, w := r.in.BaseIDs(got.Base), r.in.BaseIDs(want.Plan); !slices.Equal(g, w) {
		r.t.Fatalf("%s: plan CandIDs\n got %v\nwant %v", step, g, w)
	}
	if g, w := math.Float64bits(got.CanonicalRevenue), math.Float64bits(want.CanonicalRevenue); g != w {
		r.t.Fatalf("%s: CanonicalRevenue %v, oracle %v", step, got.CanonicalRevenue, want.CanonicalRevenue)
	}
	r.prev = want.Plan.Triples()
}

// TestReplannerMatchesOracle runs one script — boot, adoptions and
// exposures, a stock override, a price rescale, a clock advance and
// more feedback — through every replan mode, holding each replan's
// base-CandID plan and revenue bits to a from-scratch Residual solve.
func TestReplannerMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		warm, incr, fullView bool
	}{
		{"cold", false, false, false},
		{"warm", true, false, false},
		{"incremental", false, true, false},
		{"incremental+warm", true, true, false},
		{"incremental/full-view", false, true, true},
		{"incremental+warm/full-view", true, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := replanInstance(t)
			rp, err := planner.NewReplanner(planner.ReplanConfig{WarmStart: tc.warm, Incremental: tc.incr}, obs.NewRegistry())
			if err != nil {
				t.Fatal(err)
			}
			if rp.Journals() != tc.incr {
				t.Fatalf("Journals() = %v with Incremental = %v", rp.Journals(), tc.incr)
			}
			r := &replanRun{t: t, in: in, rp: rp, warm: tc.warm, fullView: tc.fullView,
				fb: planner.Feedback{Users: make([]model.UserFeedback, in.NumUsers), Stock: make([]int, in.NumItems()), Now: 1}}
			for i := range r.fb.Stock {
				r.fb.Stock[i] = in.Capacity(model.ItemID(i))
			}

			boot := rp.Boot(in, nil)
			want, err := solver.Solve(context.Background(), in, solver.Options{})
			if err != nil {
				t.Fatal(err)
			}
			r.check("boot", boot, want)
			if boot.Base.Len() == 0 {
				t.Fatal("boot plan is empty")
			}

			feed := func(now model.TimeStep, adopt bool) {
				for u := 0; u < in.NumUsers; u += 3 {
					for _, c := range in.UserCandidates(model.UserID(u)) {
						if c.T == now {
							r.record(store.Record{Type: store.RecEvent, User: int32(u), Item: int32(c.I), T: int32(now), Adopted: adopt && u%2 == 0})
							break
						}
					}
				}
			}
			feed(1, true)
			r.replan("adoptions")
			if rp.FullView() == tc.incr {
				t.Fatalf("FullView() = %v after a replan with Incremental = %v", rp.FullView(), tc.incr)
			}
			feed(1, false)
			r.replan("exposures")
			r.record(store.Record{Type: store.RecSetStock, Item: 2, Stock: 0})
			r.replan("set-stock")
			r.record(store.Record{Type: store.RecScalePrice, Item: 3, T: 2, Factor: 1.5})
			r.replan("scale-price")
			r.record(store.Record{Type: store.RecAdvance, T: 2})
			r.replan("advance")
			feed(2, true)
			r.record(store.Record{Type: store.RecSetStock, Item: 2, Stock: 3})
			r.replan("restock")
		})
	}
}

// TestReplannerFallsBackToEmptyPlan: a solve that fails — "optimal"
// beyond its exhaustive limit — yields an empty plan with no revenue
// and counts one failure.
func TestReplannerFallsBackToEmptyPlan(t *testing.T) {
	in := replanInstance(t)
	reg := obs.NewRegistry()
	rp, err := planner.NewReplanner(planner.ReplanConfig{Algorithm: solver.NameOptimal}, reg)
	if err != nil {
		t.Fatal(err)
	}
	s := rp.Boot(in, nil)
	if s.Base.Len() != 0 || s.CanonicalRevenue != 0 {
		t.Fatalf("failed solve: plan of %d triples, revenue %v; want an empty plan", s.Base.Len(), s.CanonicalRevenue)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f := fams["revmaxd_solve_failures_total"]; f == nil || len(f.Samples) != 1 || f.Samples[0].Value != 1 {
		t.Fatalf("revmaxd_solve_failures_total = %+v, want one sample of 1", f)
	}
}
