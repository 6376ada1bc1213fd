package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/testgen"
)

// passRun is one G-Greedy entry point run either way: with the per-user
// pass allowed (global false) or forced onto the global loop.
type passRun func(ctx context.Context, in *model.Instance, global bool, progress ProgressFn) (Result, error)

func stateFor(in *model.Instance, global bool) *state {
	if global {
		return newGlobalState(in)
	}
	return newState(in)
}

var passModes = []struct {
	name string
	run  passRun
}{
	{"cold", func(ctx context.Context, in *model.Instance, global bool, progress ProgressFn) (Result, error) {
		return gGreedyCtx(ctx, stateFor(in, global), progress)
	}},
	{"warm", func(ctx context.Context, in *model.Instance, global bool, progress ProgressFn) (Result, error) {
		return gGreedyWarmCtx(ctx, stateFor(in, global), warmSeeds(in), progress)
	}},
	{"staged", func(ctx context.Context, in *model.Instance, global bool, progress ProgressFn) (Result, error) {
		return gGreedyStagedCtx(ctx, stateFor(in, global), progress, []int{1, 3})
	}},
	{"global-no", func(ctx context.Context, in *model.Instance, global bool, progress ProgressFn) (Result, error) {
		newSt := newState
		if global {
			newSt = newGlobalState
		}
		return globalNoCtx(ctx, in, newSt, progress)
	}},
}

// warmSeeds is every other triple of the instance's cold plan: a seed
// that leaves room for the scan.
func warmSeeds(in *model.Instance) []model.Triple {
	var seeds []model.Triple
	for k, z := range GGreedyGlobal(in).Strategy.Triples() {
		if k%2 == 0 {
			seeds = append(seeds, z)
		}
	}
	return seeds
}

// passOutcome is everything a run reports, in comparable form.
type passOutcome struct {
	res      Result
	err      error
	progress []Progress
}

// runPass runs one mode; cancelAt > 0 cancels the context from the
// cancelAt-th progress report.
func runPass(in *model.Instance, run passRun, global bool, cancelAt int) passOutcome {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out passOutcome
	out.res, out.err = run(ctx, in, global, func(p Progress) {
		out.progress = append(out.progress, p)
		if len(out.progress) == cancelAt {
			cancel()
		}
	})
	return out
}

// diffOutcomes names the first field in which two outcomes differ, or
// returns "". Stats are compared without the phase timings and the path.
func diffOutcomes(got, want passOutcome) string {
	g, w := got.res, want.res
	switch {
	case !errors.Is(got.err, want.err) || !errors.Is(want.err, got.err):
		return fmt.Sprintf("err %v != %v", got.err, want.err)
	case math.Float64bits(g.Revenue) != math.Float64bits(w.Revenue):
		return fmt.Sprintf("Revenue %v != %v", g.Revenue, w.Revenue)
	case math.Float64bits(g.CanonicalRevenue) != math.Float64bits(w.CanonicalRevenue):
		return fmt.Sprintf("CanonicalRevenue %v != %v", g.CanonicalRevenue, w.CanonicalRevenue)
	case g.Selections != w.Selections || g.Recomputations != w.Recomputations:
		return fmt.Sprintf("selections/recomputations %d/%d != %d/%d", g.Selections, g.Recomputations, w.Selections, w.Recomputations)
	}
	gs, ws := g.Stats, w.Stats
	gs.ScanNanos, gs.SelectNanos, gs.Path = 0, 0, ""
	ws.ScanNanos, ws.SelectNanos, ws.Path = 0, 0, ""
	if gs != ws {
		return fmt.Sprintf("Stats %+v != %+v", gs, ws)
	}
	if len(g.Curve) != len(w.Curve) {
		return fmt.Sprintf("Curve has %d points, want %d", len(g.Curve), len(w.Curve))
	}
	for k := range g.Curve {
		if math.Float64bits(g.Curve[k]) != math.Float64bits(w.Curve[k]) {
			return fmt.Sprintf("Curve[%d] %v != %v", k, g.Curve[k], w.Curve[k])
		}
	}
	gt, wt := g.Plan.Triples(), w.Plan.Triples()
	if len(gt) != len(wt) {
		return fmt.Sprintf("plan has %d triples, want %d", len(gt), len(wt))
	}
	for k := range gt {
		if gt[k] != wt[k] {
			return fmt.Sprintf("plan triple %d: %v != %v", k, gt[k], wt[k])
		}
	}
	if st, wst := g.Strategy.Triples(), w.Strategy.Triples(); len(st) != len(wst) {
		return fmt.Sprintf("strategy has %d triples, want %d", len(st), len(wst))
	}
	if len(got.progress) != len(want.progress) {
		return fmt.Sprintf("%d progress reports, want %d", len(got.progress), len(want.progress))
	}
	for k := range got.progress {
		gp, wp := got.progress[k], want.progress[k]
		if gp.Done != wp.Done || gp.Total != wp.Total || math.Float64bits(gp.Best) != math.Float64bits(wp.Best) {
			return fmt.Sprintf("progress[%d] %+v != %+v", k, gp, wp)
		}
	}
	return ""
}

// TestPerUserPassMatchesGlobal: every G-Greedy entry point — cold, warm,
// staged, GlobalNo — gives the same Result, field for field, and the same
// progress sequence whether the per-user pass runs or the global loop is
// forced, on instances where capacity binds and where it does not, run to
// the end and canceled from a progress report. The table must exercise
// both the pass and its capacity fallback.
func TestPerUserPassMatchesGlobal(t *testing.T) {
	base := testgen.Params{
		Users: 30, Items: 8, Classes: 3, T: 5, K: 2,
		CandProb: 0.5, MinPrice: 2, MaxPrice: 90,
	}
	binding, loose, full := base, base, base
	binding.MaxCap = 3
	loose.MaxCap = 1000
	// Every (user, t) slot has candidates and one display slot, and
	// nothing binds capacity: the plan fills every slot, so the k·T·|U|
	// limit ends the loop.
	full.Users, full.Items, full.K, full.CandProb, full.MaxCap = 12, 4, 1, 1, 1000
	cases := []struct {
		name string
		p    testgen.Params
	}{{"binding", binding}, {"loose", loose}, {"full", full}}

	paths := map[SolvePath]int{}
	for _, c := range cases {
		for seed := uint64(1); seed <= 6; seed++ {
			in := testgen.Random(dist.NewRNG(seed), c.p)
			for _, m := range passModes {
				want := runPass(in, m.run, true, 0)
				for _, cancelAt := range []int{0, 1, want.res.Selections / 2} {
					label := fmt.Sprintf("%s/seed%d/%s/cancel%d", c.name, seed, m.name, cancelAt)
					ref := want
					if cancelAt > 0 {
						ref = runPass(in, m.run, true, cancelAt)
					}
					got := runPass(in, m.run, false, cancelAt)
					if d := diffOutcomes(got, ref); d != "" {
						t.Fatalf("%s: per-user pass differs from the global loop: %s", label, d)
					}
					if ref.res.Stats.Path != PathGlobal {
						t.Fatalf("%s: forced run reports path %q", label, ref.res.Stats.Path)
					}
					paths[got.res.Stats.Path]++
				}
			}
		}
	}
	if paths[PathPerUser] == 0 || paths[PathGlobal] == 0 {
		t.Fatalf("table exercises paths %v; want both the per-user pass and the capacity fallback", paths)
	}
}

// errAfter is a context whose Err turns Canceled after n calls: a
// cancellation that lands mid-pass, between two users.
type errAfter struct {
	context.Context
	n int
}

func (c *errAfter) Err() error {
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestPerUserPassCanceledMidPass: a cancellation seen between two users
// of the pass leaves the window-start state, and the global loop reports
// it, exactly as a global run whose context is canceled before its first
// pop.
func TestPerUserPassCanceledMidPass(t *testing.T) {
	in := testgen.Random(dist.NewRNG(3), testgen.Params{
		Users: 30, Items: 8, Classes: 3, T: 5, K: 2,
		CandProb: 0.5, MinPrice: 2, MaxPrice: 90, MaxCap: 1000,
	})
	for i := range in.Items {
		in.Items[i].Capacity = in.NumUsers
	}
	if !capacityFree(in) {
		t.Fatal("instance is not capacity-free: the pass would not run")
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range passModes {
		var want, got passOutcome
		want.res, want.err = m.run(canceled, in, true, nil)
		got.res, got.err = m.run(&errAfter{Context: context.Background(), n: 5}, in, false, nil)
		if !errors.Is(got.err, context.Canceled) || got.res.Stats.Path != PathGlobal {
			t.Fatalf("%s: err %v path %q, want a canceled global run", m.name, got.err, got.res.Stats.Path)
		}
		if d := diffOutcomes(got, want); d != "" {
			t.Fatalf("%s: canceled pass differs from a canceled global run: %s", m.name, d)
		}
	}
}

// FuzzPerUserPass: over generated instances — capacity from binding to
// loose, any K and T, cold or warm-seeded — every G-Greedy entry point
// gives the global loop's Result and progress sequence.
func FuzzPerUserPass(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(2), uint8(5), false)
	f.Add(uint64(7), uint8(200), uint8(1), uint8(3), true)
	f.Add(uint64(11), uint8(40), uint8(3), uint8(1), true)
	f.Fuzz(func(t *testing.T, seed uint64, capScale, k, steps uint8, warm bool) {
		p := testgen.Params{
			Users: 16, Items: 6, Classes: 3,
			T: int(steps%6) + 1, K: int(k%3) + 1, MaxCap: int(capScale) + 1,
			CandProb: 0.5, MinPrice: 1, MaxPrice: 60,
		}
		in := testgen.Random(dist.NewRNG(seed%1024+1), p)
		for _, m := range passModes {
			if m.name == "warm" && !warm || m.name == "staged" && p.T < 4 {
				continue // the staged mode cuts after steps 1 and 3
			}
			if d := diffOutcomes(runPass(in, m.run, false, 0), runPass(in, m.run, true, 0)); d != "" {
				t.Fatalf("%s: per-user pass differs from the global loop: %s", m.name, d)
			}
		}
	})
}

// TestPerUserPassBenchScale pins the bench instance's cold solve: the
// per-user pass runs, matches the global loop field for field, and does
// the work the bench's traced run repeats.
func TestPerUserPassBenchScale(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-scale instance")
	}
	ds, err := dataset.Build("synthetic", dataset.Config{Seed: 1, Scale: 0.01, Users: 4000})
	if err != nil {
		t.Fatal(err)
	}
	in := ds.Instance
	cold := passModes[0].run
	got := runPass(in, cold, false, 0)
	want := runPass(in, cold, true, 0)
	if d := diffOutcomes(got, want); d != "" {
		t.Fatalf("per-user pass differs from the global loop: %s", d)
	}
	r := got.res
	if r.Stats.Path != PathPerUser {
		t.Fatalf("path %q, want %q", r.Stats.Path, PathPerUser)
	}
	if r.Selections != 31368 || r.Recomputations != 147992 || r.Stats.HeapPops != 71892 {
		t.Fatalf("selections/recomputations/pops = %d/%d/%d, want 31368/147992/71892",
			r.Selections, r.Recomputations, r.Stats.HeapPops)
	}
}
