package solver

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/testgen"
)

// testInstance builds a deterministic mid-size random instance.
func testInstance(t *testing.T, seed uint64) *model.Instance {
	t.Helper()
	p := testgen.Params{
		Users: 30, Items: 12, Classes: 4, T: 5, K: 2,
		MaxCap: 6, CandProb: 0.5, MinPrice: 5, MaxPrice: 120,
	}
	in := testgen.Random(dist.NewRNG(seed), p)
	if err := in.Validate(); err != nil {
		t.Fatalf("generated instance invalid: %v", err)
	}
	return in
}

// tinyInstance is small enough for the exhaustive optimal solver.
func tinyInstance(t *testing.T) *model.Instance {
	t.Helper()
	p := testgen.Params{
		Users: 3, Items: 3, Classes: 2, T: 2, K: 1,
		MaxCap: 2, CandProb: 0.5, MinPrice: 5, MaxPrice: 50,
	}
	in := testgen.Random(dist.NewRNG(7), p)
	if err := in.Validate(); err != nil {
		t.Fatalf("generated instance invalid: %v", err)
	}
	return in
}

// dummyRating is a deterministic rating predictor for top-rating runs.
func dummyRating(u model.UserID, i model.ItemID) float64 {
	return float64(int(u)*7+int(i)*3) / 100
}

// TestRegistryRoundTrip: every name in List() resolves through Lookup
// to an algorithm reporting exactly that name — the registry property
// of the PR checklist.
func TestRegistryRoundTrip(t *testing.T) {
	names := List()
	if len(names) == 0 {
		t.Fatal("empty registry")
	}
	for _, name := range names {
		a, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if got := a.Name(); got != name {
			t.Errorf("Lookup(%q).Name() = %q; round-trip broken", name, got)
		}
	}
}

// TestRegistrySorted: List is sorted and duplicate-free.
func TestRegistrySorted(t *testing.T) {
	names := List()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("List() not strictly sorted at %d: %q >= %q", i, names[i-1], names[i])
		}
	}
}

// TestAliases: the paper's legend spellings resolve case-insensitively
// to the canonical algorithms, and every alias targets a listed name.
func TestAliases(t *testing.T) {
	cases := map[string]string{
		"GG":          NameGGreedy,
		"gg":          NameGGreedy,
		"GG-No":       NameGGreedyNo,
		"SLG":         NameSLGreedy,
		"RLG":         NameRLGreedy,
		"TopRev":      NameTopRevenue,
		"TopRat":      NameTopRating,
		" rl-GREEDY ": NameRLGreedy,
	}
	for alias, want := range cases {
		a, err := Lookup(alias)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", alias, err)
		}
		if a.Name() != want {
			t.Errorf("Lookup(%q).Name() = %q, want %q", alias, a.Name(), want)
		}
	}
	listed := make(map[string]bool)
	for _, n := range List() {
		listed[n] = true
	}
	for alias, canonical := range Aliases() {
		if !listed[canonical] {
			t.Errorf("alias %q targets unlisted algorithm %q", alias, canonical)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("definitely-not-an-algorithm"); err == nil {
		t.Fatal("expected an error for an unknown name")
	}
}

// TestSolveMatchesDirect: registry dispatch is behavior-preserving —
// the strategies and revenues are identical to direct core calls for
// fixed seeds.
func TestSolveMatchesDirect(t *testing.T) {
	in := testInstance(t, 11)
	ctx := context.Background()
	cases := []struct {
		opts   Options
		direct core.Result
	}{
		{Options{Algorithm: "g-greedy"}, core.GGreedy(in)},
		{Options{Algorithm: "GG"}, core.GGreedy(in)},
		{Options{Algorithm: "g-greedy-no"}, core.GlobalNo(in)},
		{Options{Algorithm: "sl-greedy"}, core.SLGreedy(in)},
		{Options{Algorithm: "rl-greedy", Perms: 6, Seed: 43}, core.RLGreedy(in, 6, 43)},
		{Options{Algorithm: "rl-greedy-parallel", Perms: 6, Seed: 43, Workers: 3}, core.RLGreedyParallel(in, 6, 43, 3)},
		{Options{Algorithm: "g-greedy-staged", Cuts: []int{2, 4}}, core.GGreedyStaged(in, 2, 4)},
		{Options{Algorithm: "rl-greedy-staged", Perms: 4, Seed: 9, Cuts: []int{3}}, core.RLGreedyStaged(in, 4, 9, 3)},
		{Options{Algorithm: "top-revenue"}, core.TopRE(in)},
		{Options{Algorithm: "top-rating", Rating: dummyRating}, core.TopRA(in, dummyRating)},
		{Options{Algorithm: "naive-greedy"}, core.NaiveGreedy(in)},
	}
	for _, tc := range cases {
		res, err := Solve(ctx, in, tc.opts)
		if err != nil {
			t.Fatalf("Solve(%q): %v", tc.opts.Algorithm, err)
		}
		if res.Revenue != tc.direct.Revenue {
			t.Errorf("Solve(%q) revenue %v != direct %v", tc.opts.Algorithm, res.Revenue, tc.direct.Revenue)
		}
		got, want := res.Strategy.Triples(), tc.direct.Strategy.Triples()
		if len(got) != len(want) {
			t.Fatalf("Solve(%q): %d triples != direct %d", tc.opts.Algorithm, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Solve(%q): triple %d = %v != direct %v", tc.opts.Algorithm, i, got[i], want[i])
			}
		}
	}
}

// TestSolveDefaults: the zero Options run G-Greedy.
func TestSolveDefaults(t *testing.T) {
	in := testInstance(t, 3)
	res, err := Solve(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := core.GGreedy(in)
	if res.Revenue != want.Revenue || res.Strategy.Len() != want.Strategy.Len() {
		t.Fatalf("zero Options = (%v, %d); want G-Greedy (%v, %d)",
			res.Revenue, res.Strategy.Len(), want.Revenue, want.Strategy.Len())
	}
}

// TestCanceledSolveAlwaysErrors: with an already-canceled context,
// every registered algorithm returns a non-nil error — a canceled
// Solve never hands back a Result without one.
func TestCanceledSolveAlwaysErrors(t *testing.T) {
	in := tinyInstance(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range List() {
		_, err := Solve(ctx, in, Options{Algorithm: name, Rating: dummyRating, Perms: 2})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Solve(%q) with canceled ctx: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestSolveCancelMidRun: canceling from inside a progress callback
// aborts RL-Greedy within one further permutation and surfaces
// ctx.Err(); the partial best is only returned alongside the error.
func TestSolveCancelMidRun(t *testing.T) {
	in := testInstance(t, 5)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var reports []Progress
	_, err := Solve(ctx, in, Options{
		Algorithm: "rl-greedy",
		Perms:     50,
		Seed:      1,
		Progress: func(p Progress) {
			reports = append(reports, p)
			if p.Done == 2 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Cancellation fired after permutation 2; the loop must stop before
	// starting permutation 3 (within one iteration).
	if last := reports[len(reports)-1]; last.Done > 2 {
		t.Errorf("ran %d permutations after cancel at 2", last.Done-2)
	}
	if reports[0].Algorithm != "rl-greedy" {
		t.Errorf("Progress.Algorithm = %q, want rl-greedy", reports[0].Algorithm)
	}
}

// TestTopRatingRequiresRating: the baseline errors loudly without a
// rating predictor instead of silently ranking everything equal.
func TestTopRatingRequiresRating(t *testing.T) {
	in := tinyInstance(t)
	if _, err := Solve(context.Background(), in, Options{Algorithm: "top-rating"}); err == nil {
		t.Fatal("expected an error without Options.Rating")
	}
}

// TestProgressReported: long algorithms report monotonically increasing
// Done counts ending at Total.
func TestProgressReported(t *testing.T) {
	in := testInstance(t, 21)
	var reports []Progress
	_, err := Solve(context.Background(), in, Options{
		Algorithm: "rl-greedy",
		Perms:     5,
		Progress:  func(p Progress) { reports = append(reports, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 5 {
		t.Fatalf("got %d progress reports, want 5", len(reports))
	}
	for i, p := range reports {
		if p.Done != i+1 || p.Total != 5 {
			t.Errorf("report %d = %+v, want Done=%d Total=5", i, p, i+1)
		}
	}
}

// TestSolveNilInstance guards the dispatch layer's input validation.
func TestSolveNilInstance(t *testing.T) {
	if _, err := Solve(context.Background(), nil, Options{}); err == nil {
		t.Fatal("expected an error for a nil instance")
	}
}

// TestDirectAlgorithmSolveAppliesDefaults: Lookup(...).Solve with zero
// Options must behave like the package-level Solve — in particular the
// RL-Greedy family gets its default permutation count instead of
// silently planning nothing (regression: planner.Named used to bypass
// withDefaults and serve empty rl-greedy plans).
func TestDirectAlgorithmSolveAppliesDefaults(t *testing.T) {
	in := testInstance(t, 19)
	a, err := Lookup("rl-greedy")
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Solve(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy == nil || res.Strategy.Len() == 0 {
		t.Fatal("direct Solve with zero Options planned an empty strategy (Perms default not applied)")
	}
	want := core.RLGreedy(in, 5, 0)
	if res.Revenue != want.Revenue {
		t.Fatalf("direct Solve revenue %v != RLGreedy(in, 5, 0) %v", res.Revenue, want.Revenue)
	}
}

// TestValidateOptions: instance-free option validation — the check
// planner.Named and the serving engine rely on to reject fallible
// configurations at construction time.
func TestValidateOptions(t *testing.T) {
	if err := ValidateOptions(Options{}); err != nil {
		t.Fatalf("zero Options: %v", err)
	}
	if err := ValidateOptions(Options{Algorithm: "top-rating", Rating: dummyRating}); err != nil {
		t.Fatalf("top-rating with Rating: %v", err)
	}
	if err := ValidateOptions(Options{Algorithm: "top-rating"}); err == nil {
		t.Fatal("top-rating without Rating accepted")
	}
	if err := ValidateOptions(Options{Algorithm: "nope"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// TestServableAlgorithms: serving installs Result.Plan as is, so every
// registry algorithm CheckServable admits must return a valid one over
// the instance it solved, holding exactly its strategy's triples. It
// rejects top-rating, whose strategy has non-candidate triples, and
// local-search, whose R-REVMAX plans may exceed capacity.
func TestServableAlgorithms(t *testing.T) {
	for _, name := range List() {
		t.Run(name, func(t *testing.T) {
			err := CheckServable(name)
			switch name {
			case NameTopRating, NameLocalSearch:
				if err == nil {
					t.Fatal("CheckServable accepted an algorithm whose plans cannot serve")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			in := testInstance(t, 5)
			if name == NameOptimal {
				in = tinyInstance(t)
			}
			res, err := Solve(context.Background(), in, Options{Algorithm: name, Cuts: []int{2}})
			if err != nil {
				t.Fatal(err)
			}
			if res.Plan == nil || res.Plan.Instance() != in {
				t.Fatalf("no plan over the solved instance (plan %v)", res.Plan)
			}
			if err := res.Plan.Valid(); err != nil {
				t.Fatalf("servable plan violates a constraint: %v", err)
			}
			got, want := res.Plan.Triples(), res.Strategy.Triples()
			if len(got) != len(want) {
				t.Fatalf("plan holds %d triples, strategy %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("triple %d: plan %v, strategy %v", i, got[i], want[i])
				}
			}
		})
	}
	if err := CheckServable("ls"); err == nil {
		t.Error("CheckServable accepted local-search by alias")
	}
	if err := CheckServable("toprat"); err == nil {
		t.Error("CheckServable accepted top-rating by alias")
	}
	if err := CheckServable("nope"); err == nil {
		t.Error("CheckServable accepted an unknown name")
	}
}
