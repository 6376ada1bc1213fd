package revmax_test

import (
	"context"
	"math"
	"testing"

	revmax "repro"
)

// buildIntro builds the introduction's motivating scenario: a smartphone
// going on sale at t = 3, one high-valuation user and one low-valuation
// user. Strategic timing should recommend before the drop to the
// high-valuation user and at/after the drop to the low-valuation user.
func buildIntro() *revmax.Instance {
	in := revmax.NewInstance(2, 1, 4, 1)
	in.SetItem(0, 0, 0.8, 2)
	prices := []float64{500, 500, 350, 350} // sale from t = 3
	// valuations: user 0 ≈ 520 (buys at full price), user 1 ≈ 380.
	val := []float64{520, 380}
	for t := 1; t <= 4; t++ {
		in.SetPrice(0, revmax.TimeStep(t), prices[t-1])
		for u := 0; u < 2; u++ {
			// Simple sharp valuation: q high when price ≤ valuation.
			q := 0.05
			if prices[t-1] <= val[u] {
				q = 0.6
			}
			in.AddCandidate(revmax.UserID(u), 0, revmax.TimeStep(t), q)
		}
	}
	in.FinishCandidates()
	return in
}

// solve runs revmax.Solve and fails the test on error.
func solve(t *testing.T, in *revmax.Instance, opts revmax.Options) revmax.Result {
	t.Helper()
	res, err := revmax.Solve(context.Background(), in, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFacadeQuickstartFlow(t *testing.T) {
	in := buildIntro()
	res := solve(t, in, revmax.Options{Algorithm: "g-greedy"})
	if err := in.CheckValid(res.Strategy); err != nil {
		t.Fatal(err)
	}
	if res.Revenue <= 0 {
		t.Fatal("no revenue on the intro scenario")
	}
	if got := revmax.Revenue(in, res.Strategy); math.Abs(got-res.Revenue) > 1e-9 {
		t.Fatalf("facade Revenue %v != reported %v", got, res.Revenue)
	}
}

func TestStrategicTimingOnIntroScenario(t *testing.T) {
	// The paper's motivating claim (§1): recommend before the sale to
	// high-valuation users, at the sale to low-valuation users. G-Greedy's
	// first recommendation per user should respect that split.
	in := buildIntro()
	res := solve(t, in, revmax.Options{Algorithm: "g-greedy"})
	firstRec := map[revmax.UserID]revmax.TimeStep{}
	for _, z := range res.Strategy.Triples() {
		if cur, ok := firstRec[z.U]; !ok || z.T < cur {
			firstRec[z.U] = z.T
		}
	}
	if firstRec[0] >= 3 {
		t.Fatalf("high-valuation user first recommended at t=%d, want before the sale", firstRec[0])
	}
	if firstRec[1] < 3 {
		t.Fatalf("low-valuation user first recommended at t=%d, want at/after the sale", firstRec[1])
	}
}

func TestFacadeAlgorithmsAgree(t *testing.T) {
	in := buildIntro()
	gg := solve(t, in, revmax.Options{Algorithm: "g-greedy"})
	sl := solve(t, in, revmax.Options{Algorithm: "sl-greedy"})
	rl := solve(t, in, revmax.Options{Algorithm: "rl-greedy", Perms: 4, Seed: 1})
	tre := solve(t, in, revmax.Options{Algorithm: "top-revenue"})
	for name, r := range map[string]revmax.Result{"GG": gg, "SLG": sl, "RLG": rl, "TopRE": tre} {
		if err := in.CheckValid(r.Strategy); err != nil {
			t.Fatalf("%s invalid: %v", name, err)
		}
	}
	if gg.Revenue < tre.Revenue-1e-9 {
		t.Fatalf("GG (%v) below TopRE (%v) on strategic-timing scenario", gg.Revenue, tre.Revenue)
	}
}

func TestFacadeOptimalAndLocalSearch(t *testing.T) {
	in := buildIntro()
	opt := solve(t, in, revmax.Options{Algorithm: "optimal"})
	gg := solve(t, in, revmax.Options{Algorithm: "g-greedy"})
	if gg.Revenue > opt.Revenue+1e-9 {
		t.Fatalf("greedy %v exceeds optimum %v", gg.Revenue, opt.Revenue)
	}
	ls := solve(t, in, revmax.Options{Algorithm: "local-search", Oracle: revmax.ExactOracle{}, Epsilon: 0.25})
	if ls.Strategy.Len() == 0 {
		t.Fatal("local search returned empty strategy on a profitable instance")
	}
	// R-REVMAX relaxes capacity, so its objective can only exceed the
	// constrained optimum's effective revenue — sanity: positive value.
	if ls.Revenue <= 0 {
		t.Fatalf("local search value %v", ls.Revenue)
	}
}

func TestFacadeSolveT1(t *testing.T) {
	in := revmax.NewInstance(2, 2, 1, 1)
	in.SetItem(0, 0, 1, 1)
	in.SetItem(1, 1, 1, 1)
	in.SetPrice(0, 1, 10)
	in.SetPrice(1, 1, 8)
	in.AddCandidate(0, 0, 1, 0.9) // 9.0
	in.AddCandidate(0, 1, 1, 0.9) // 7.2
	in.AddCandidate(1, 0, 1, 0.5) // 5.0
	in.AddCandidate(1, 1, 1, 0.9) // 7.2
	in.FinishCandidates()
	s, weight, err := revmax.SolveT1(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal assignment: u0→i0 (9.0) + u1→i1 (7.2).
	if math.Abs(weight-16.2) > 1e-9 {
		t.Fatalf("weight = %v, want 16.2", weight)
	}
	if s.Len() != 2 {
		t.Fatalf("strategy size %d, want 2", s.Len())
	}
}

func TestFacadeDatasetsAndExperiments(t *testing.T) {
	ds, err := revmax.AmazonLike(revmax.DatasetConfig{Seed: 1, Scale: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Instance.NumCandidates() == 0 {
		t.Fatal("no candidates")
	}
	res := solve(t, ds.Instance, revmax.Options{Algorithm: "top-rating", Rating: revmax.RatingFn(ds.Rating)})
	if err := ds.Instance.CheckValid(res.Strategy); err != nil {
		t.Fatal(err)
	}
	t1, err := revmax.Table1(revmax.ExperimentConfig{Scale: 0.004, Seed: 3, Perms: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Rows) == 0 || t1.Render() == "" {
		t.Fatal("Table1 empty")
	}
}

func TestFacadeRandomPriceModel(t *testing.T) {
	in := buildIntro()
	m := &revmax.RandomPriceModel{
		In: in,
		Adopt: func(u revmax.UserID, i revmax.ItemID, tt revmax.TimeStep, price float64) float64 {
			return in.Q(u, i, tt)
		},
		Var: func(revmax.ItemID, revmax.TimeStep) float64 { return 0 },
	}
	s := solve(t, in, revmax.Options{Algorithm: "g-greedy"}).Strategy
	if got, want := m.TaylorRevenue(s), revmax.Revenue(in, s); math.Abs(got-want) > 1e-9 {
		t.Fatalf("zero-variance Taylor %v != deterministic %v", got, want)
	}
}

func TestFacadeEffectiveRevenueOracles(t *testing.T) {
	in := buildIntro()
	s := solve(t, in, revmax.Options{Algorithm: "g-greedy"}).Strategy
	exact := revmax.EffectiveRevenue(in, s, revmax.ExactOracle{})
	mc := revmax.EffectiveRevenue(in, s, revmax.NewMonteCarloOracle(50000, 1))
	if math.Abs(exact-mc) > 0.02*math.Abs(exact)+0.01 {
		t.Fatalf("MC oracle %v far from exact %v", mc, exact)
	}
}
