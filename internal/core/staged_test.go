package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/testgen"
)

func TestGGreedyStagedMultipleCuts(t *testing.T) {
	rng := dist.NewRNG(51)
	p := testgen.Default()
	p.T = 6
	for trial := 0; trial < 8; trial++ {
		in := testgen.Random(rng, p)
		res := core.GGreedyStaged(in, 2, 4)
		checkResult(t, in, "GGreedyStaged(2,4)", res)
		// Degenerate cuts: every step its own window = fully sequential
		// global greedy; still valid.
		seq := core.GGreedyStaged(in, 1, 2, 3, 4, 5)
		checkResult(t, in, "GGreedyStaged(1..5)", seq)
	}
}

func TestGGreedyStagedIgnoresOutOfRangeCuts(t *testing.T) {
	rng := dist.NewRNG(52)
	in := testgen.Random(rng, testgen.Default()) // T = 3
	plain := core.GGreedy(in)
	// Cuts at 0 and beyond T collapse to the full-horizon run.
	weird := core.GGreedyStaged(in, 0, 7)
	if math.Abs(plain.Revenue-weird.Revenue) > 1e-9 {
		t.Fatalf("out-of-range cuts changed revenue: %v vs %v", weird.Revenue, plain.Revenue)
	}
}

func TestGGreedyStagedFullCutEqualsSLGreedyOrder(t *testing.T) {
	// Cutting after every single step forces chronological processing —
	// global selection within a one-step window. The result must satisfy
	// the same validity as SL-Greedy and typically lands close to it.
	rng := dist.NewRNG(53)
	var stagedSum, slSum float64
	for trial := 0; trial < 10; trial++ {
		in := testgen.Random(rng, testgen.Default())
		cuts := make([]int, in.T-1)
		for i := range cuts {
			cuts[i] = i + 1
		}
		staged := core.GGreedyStaged(in, cuts...)
		checkResult(t, in, "GGreedyStaged(all)", staged)
		stagedSum += staged.Revenue
		slSum += core.SLGreedy(in).Revenue
	}
	if stagedSum < 0.9*slSum || slSum < 0.9*stagedSum {
		t.Fatalf("per-step staged GG (%v) diverges from SL-Greedy (%v)", stagedSum, slSum)
	}
}

func TestRLGreedyCapsPermutationsAtFactorial(t *testing.T) {
	// T = 2 ⇒ only 2 permutations; asking for 50 must still terminate and
	// equal the best of both orderings.
	in := model.NewInstance(1, 1, 2, 1)
	in.SetItem(0, 0, 0.1, 2)
	in.SetPrice(0, 1, 1)
	in.SetPrice(0, 2, 0.95)
	in.AddCandidate(0, 0, 1, 0.5)
	in.AddCandidate(0, 0, 2, 0.6)
	in.FinishCandidates()
	res := core.RLGreedy(in, 50, 3)
	if math.Abs(res.Revenue-0.57) > 1e-9 {
		t.Fatalf("revenue %v, want 0.57 (best of both orderings)", res.Revenue)
	}
}

// TestCurveMatchesSelections: the curve has one point per selection and
// ends at Revenue bit for bit, for a cold, a warm-seeded and a staged
// solve, with capacity tight (the global loop) and loose (the per-user
// pass).
func TestCurveMatchesSelections(t *testing.T) {
	rng := dist.NewRNG(54)
	loose := testgen.Default()
	loose.MaxCap = 100
	for _, row := range []struct {
		p    testgen.Params
		path core.SolvePath
	}{{testgen.Default(), core.PathGlobal}, {loose, core.PathPerUser}} {
		p := row.p
		in := testgen.Random(rng, p)
		cold := core.GGreedy(in)
		var seeds []model.Triple
		for k, z := range cold.Strategy.Triples() {
			if k%2 == 0 {
				seeds = append(seeds, z)
			}
		}
		for _, c := range []struct {
			name string
			res  core.Result
		}{
			{"cold", cold},
			{"warm", core.GGreedyWarm(in, seeds)},
			{"staged", core.GGreedyStaged(in, 1, 3)},
		} {
			res := c.res
			if res.Stats.Path != row.path {
				t.Fatalf("MaxCap %d %s: path %q, want %q", p.MaxCap, c.name, res.Stats.Path, row.path)
			}
			if len(res.Curve) != res.Strategy.Len() || len(res.Curve) == 0 {
				t.Fatalf("MaxCap %d %s: curve has %d points for %d selections", p.MaxCap, c.name, len(res.Curve), res.Strategy.Len())
			}
			if end := res.Curve[len(res.Curve)-1]; math.Float64bits(end) != math.Float64bits(res.Revenue) {
				t.Fatalf("MaxCap %d %s: curve endpoint %v != final revenue %v", p.MaxCap, c.name, end, res.Revenue)
			}
		}
	}
}

func TestGlobalNoEqualsGGreedyWithoutSaturation(t *testing.T) {
	// When the true instance already has β = 1 everywhere, GlobalNo and
	// GGreedy coincide exactly.
	rng := dist.NewRNG(55)
	p := testgen.Default()
	p.UniformBeta = 1
	for trial := 0; trial < 5; trial++ {
		in := testgen.Random(rng, p)
		a := core.GGreedy(in)
		b := core.GlobalNo(in)
		if math.Abs(a.Revenue-b.Revenue) > 1e-9 {
			t.Fatalf("β=1: GlobalNo %v != GGreedy %v", b.Revenue, a.Revenue)
		}
	}
}
