package solver_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/revenue"
	"repro/internal/solver"
	"repro/internal/testgen"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// goldenRating is a deterministic stand-in rating predictor for the
// top-rating baseline.
func goldenRating(u model.UserID, i model.ItemID) float64 {
	return float64((int(u)*31 + int(i)*17) % 101)
}

// goldenInstance is the fixed medium instance every algorithm (except
// the exhaustive validator) runs on.
func goldenInstance(tb testing.TB) *model.Instance {
	tb.Helper()
	in := testgen.Random(dist.NewRNG(7), testgen.Params{
		Users: 40, Items: 12, Classes: 4, T: 5, K: 2,
		MaxCap: 5, CandProb: 0.35, MinPrice: 1, MaxPrice: 100,
	})
	if err := in.Validate(); err != nil {
		tb.Fatal(err)
	}
	return in
}

// goldenTinyInstance is small enough for the exhaustive optimal solver.
func goldenTinyInstance(tb testing.TB) *model.Instance {
	tb.Helper()
	in := testgen.Random(dist.NewRNG(11), testgen.Params{
		Users: 4, Items: 3, Classes: 2, T: 3, K: 1,
		MaxCap: 2, CandProb: 0.4, MinPrice: 5, MaxPrice: 50,
	})
	if err := in.Validate(); err != nil {
		tb.Fatal(err)
	}
	if n := in.NumCandidates(); n > 20 {
		tb.Fatalf("tiny instance has %d candidates; too many for optimal", n)
	}
	return in
}

// algoGolden is one algorithm's canonical output: the strategy in
// canonical (user, item, time) order plus the exact revenue bits.
type algoGolden struct {
	Algorithm  string   `json:"algorithm"`
	Revenue    string   `json:"revenue"` // %.17g: round-trips float64 exactly
	Selections int      `json:"selections"`
	Triples    []string `json:"triples"`
}

func canonicalResult(name string, res solver.Result) algoGolden {
	g := algoGolden{
		Algorithm:  name,
		Revenue:    fmt.Sprintf("%.17g", res.Revenue),
		Selections: res.Selections,
		Triples:    []string{},
	}
	for _, z := range res.Strategy.Triples() {
		g.Triples = append(g.Triples, fmt.Sprintf("%d,%d,%d", z.U, z.I, z.T))
	}
	return g
}

// TestAlgorithmGoldenOutputs locks every registered algorithm's output
// for fixed seeds: the selected strategy and the exact revenue bits must
// stay byte-identical across refactors of the plan representation and
// the evaluator hot path. Regenerate deliberately with:
//
//	go test ./internal/solver -run TestAlgorithmGoldenOutputs -update
func TestAlgorithmGoldenOutputs(t *testing.T) {
	in := goldenInstance(t)
	tiny := goldenTinyInstance(t)
	ctx := context.Background()

	var got []algoGolden
	for _, name := range solver.List() {
		opts := solver.Options{
			Algorithm: name,
			Perms:     4,
			Seed:      9,
			Workers:   3,
			Cuts:      []int{2},
			Epsilon:   0.5,
			Rating:    core.RatingFn(goldenRating),
		}
		target := in
		// The exhaustive validator only accepts tiny inputs, and local
		// search recomputes the effective-revenue objective from scratch
		// per move — both run on the tiny instance to keep the test fast.
		if name == solver.NameOptimal || name == solver.NameLocalSearch {
			target = tiny
		}
		res, err := solver.Solve(ctx, target, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got = append(got, canonicalResult(name, res))
		// Every candidate-indexed result carries the canonical revenue of
		// its strategy, bit for bit — what lets the serving engine publish
		// plan_revenue without a revenue.Revenue pass per replan.
		if res.Plan != nil {
			carried, want := res.CanonicalRevenue, revenue.Revenue(target, res.Strategy)
			if math.Float64bits(carried) != math.Float64bits(want) {
				t.Errorf("%s: carried revenue %.17g is not revenue.Revenue %.17g bit for bit", name, carried, want)
			}
		}
	}

	path := filepath.Join("testdata", "golden_algorithms.json")
	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to generate): %v", err)
	}
	if string(want) != string(raw) {
		t.Fatalf("algorithm outputs diverged from golden file %s.\nDiff the file against this run's output "+
			"(rerun with -update only if the change is intended):\n%s", path, firstDiff(string(want), string(raw)))
	}
}

// firstDiff returns a short context around the first differing line.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("length differs: want %d lines, got %d lines", len(wl), len(gl))
}
