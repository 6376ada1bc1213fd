package experiments_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// tiny returns a configuration small enough for unit tests.
func tiny() experiments.Config {
	return experiments.Config{Scale: 0.004, Seed: 7, Perms: 3}
}

func TestTable1(t *testing.T) {
	res, err := experiments.Table1(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (Amazon, Epinions, 2 synthetic)", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Users <= 0 || row.Items <= 0 || row.PositiveQ <= 0 {
			t.Fatalf("degenerate stats row: %+v", row)
		}
	}
	out := res.Render()
	for _, want := range []string{"Table 1", "Amazon", "Epinions", "Synthetic", "RMSE"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFigure1ShapeAndHierarchy(t *testing.T) {
	res, err := experiments.Figure1(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Panels) != 12 { // 2 datasets × 2 class modes × 3 capacity dists
		t.Fatalf("panels = %d, want 12", len(res.Panels))
	}
	ggWins, total := 0, 0
	for _, p := range res.Panels {
		for _, a := range experiments.AllAlgorithms {
			if p.Revenues[a] < 0 {
				t.Fatalf("negative revenue for %s in %s/%s", a, p.Dataset, p.Label)
			}
		}
		total++
		gg := p.Revenues[experiments.AlgoGG]
		best := true
		for _, a := range experiments.AllAlgorithms {
			if p.Revenues[a] > gg*1.001 {
				best = false
			}
		}
		if best {
			ggWins++
		}
	}
	// The paper's headline: G-Greedy consistently wins. At tiny scale we
	// require it to win a clear majority of panels.
	if ggWins*2 < total {
		t.Fatalf("G-Greedy best in only %d/%d panels", ggWins, total)
	}
	if !strings.Contains(res.Render(), "Figure 1") {
		t.Fatal("render missing title")
	}
}

func TestFigure2BaselinesTrailGreedy(t *testing.T) {
	res, err := experiments.Figure2(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Panels) != 12 { // 2 datasets × 2 cap dists × 3 betas
		t.Fatalf("panels = %d, want 12", len(res.Panels))
	}
	ggBeatsTopRat := 0
	for _, p := range res.Panels {
		if p.Revenues[experiments.AlgoGG] >= p.Revenues[experiments.AlgoTopRat] {
			ggBeatsTopRat++
		}
	}
	if ggBeatsTopRat < len(res.Panels)*3/4 {
		t.Fatalf("GG beats TopRat in only %d/%d panels", ggBeatsTopRat, len(res.Panels))
	}
}

func TestFigure3SingletonClasses(t *testing.T) {
	res, err := experiments.Figure3(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if res.Figure != "Figure 3" {
		t.Fatalf("figure = %q", res.Figure)
	}
	if !strings.Contains(res.Render(), "class size = 1") {
		t.Fatal("render missing class-size annotation")
	}
}

func TestFigure4CurvesMonotoneIncreasingMostly(t *testing.T) {
	res, err := experiments.Figure4(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for ds, curves := range res.Curves {
		for algo, curve := range curves {
			if len(curve) == 0 {
				t.Fatalf("%s/%s: empty curve", ds, algo)
			}
			// Greedy only adds positive-marginal triples, so the curve
			// must be strictly increasing.
			for i := 1; i < len(curve); i++ {
				if curve[i] <= curve[i-1] {
					t.Fatalf("%s/%s: curve not increasing at %d", ds, algo, i)
				}
			}
		}
	}
	if !strings.Contains(res.Render(), "Figure 4") {
		t.Fatal("render missing title")
	}
}

func TestFigure5HistogramSkewsWithBeta(t *testing.T) {
	res, err := experiments.Figure5(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range []string{"Amazon", "Epinions"} {
		low := res.Hist[ds][0.1]
		high := res.Hist[ds][0.9]
		if len(low) == 0 || len(high) == 0 {
			t.Fatalf("%s: missing histograms", ds)
		}
		// Strong saturation (β = 0.1) should concentrate mass at 1–2
		// repeats relative to weak saturation (β = 0.9): compare the
		// fraction of pairs recommended more than twice.
		fracHigh := repeatFrac(high)
		fracLow := repeatFrac(low)
		if fracLow > fracHigh+0.25 {
			t.Fatalf("%s: beta=0.1 has more repeats (%v) than beta=0.9 (%v)", ds, fracLow, fracHigh)
		}
	}
	if !strings.Contains(res.Render(), "Figure 5") {
		t.Fatal("render missing title")
	}
}

// repeatFrac returns the fraction of pairs with ≥ 3 repeats.
func repeatFrac(hist []int) float64 {
	total, multi := 0, 0
	for i, c := range hist {
		total += c
		if i >= 2 {
			multi += c
		}
	}
	if total == 0 {
		return 0
	}
	return float64(multi) / float64(total)
}

func TestTable2TimesPopulated(t *testing.T) {
	res, err := experiments.Table2(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range []string{"Amazon", "Epinions"} {
		for _, a := range experiments.Table2Algorithms {
			if res.Times[ds][a] <= 0 {
				t.Fatalf("%s/%s: no duration recorded", ds, a)
			}
		}
		// Baselines are much cheaper than greedy algorithms (paper Table 2).
		if res.Times[ds][experiments.AlgoTopRat] > res.Times[ds][experiments.AlgoRLG]*10 {
			t.Fatalf("%s: TopRat slower than 10× RLG — implausible", ds)
		}
	}
	if !strings.Contains(res.Render(), "Table 2") {
		t.Fatal("render missing title")
	}
}

func TestFigure6LinearishGrowth(t *testing.T) {
	res, err := experiments.Figure6(experiments.Config{Scale: 0.002, Seed: 7, Perms: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("points = %d, want 5", len(res.Points))
	}
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].Candidates <= res.Points[i-1].Candidates {
			t.Fatal("candidate counts not increasing")
		}
	}
	if !strings.Contains(res.Render(), "Figure 6") {
		t.Fatal("render missing title")
	}
}

func TestFigure7StagedNeverBeatsPlainMaterially(t *testing.T) {
	res, err := experiments.Figure7(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Panels) != 4 { // 2 datasets × 2 capacity dists
		t.Fatalf("panels = %d, want 4", len(res.Panels))
	}
	for _, p := range res.Panels {
		gg := p.Revenues[experiments.AlgoGG]
		for _, cutName := range []string{"GG_2", "GG_4", "GG_5"} {
			if p.Revenues[cutName] > gg*1.001 {
				t.Fatalf("%s: %s (%v) beats full-information GG (%v)", p.Dataset, cutName, p.Revenues[cutName], gg)
			}
		}
	}
	if !strings.Contains(res.Render(), "Figure 7") {
		t.Fatal("render missing title")
	}
}

func TestRandomPricesTaylorCompetitive(t *testing.T) {
	res, err := experiments.RandomPrices(experiments.Config{Scale: 0.003, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.MonteCarlo <= 0 {
		t.Fatalf("MC truth %v not positive", res.MonteCarlo)
	}
	// Taylor must not be materially worse than the naive proxy.
	if res.TaylorErr > res.ProxyErr+0.02 {
		t.Fatalf("Taylor err %v worse than proxy err %v", res.TaylorErr, res.ProxyErr)
	}
	if !strings.Contains(res.Render(), "Taylor") {
		t.Fatal("render missing estimator rows")
	}
}

func TestAblationShapes(t *testing.T) {
	res, err := experiments.Ablation(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
	byName := map[string]experiments.AblationRow{}
	for _, r := range res.Rows {
		if r.Duration <= 0 {
			t.Fatalf("%s: no duration", r.Variant)
		}
		byName[r.Variant] = r
	}
	gg := byName["GG (two-level + lazy)"]
	// The default G-Greedy solves user by user; forcing the global loop
	// must select exactly the same strategy with the same work.
	if global := byName["GG global two-level"]; math.Float64bits(global.Revenue) != math.Float64bits(gg.Revenue) ||
		global.Recomputations != gg.Recomputations {
		t.Fatalf("global loop revenue/recomputations %v/%d, per-user pass %v/%d",
			global.Revenue, global.Recomputations, gg.Revenue, gg.Recomputations)
	}
	// All G-Greedy variants earn near-identical revenue.
	for _, name := range []string{"GG single giant heap", "GG eager (no lazy fwd)", "GG full rescan (naive)"} {
		if v := byName[name]; v.Revenue < 0.9*gg.Revenue || gg.Revenue < 0.9*v.Revenue {
			t.Fatalf("%s revenue %v far from GG %v", name, v.Revenue, gg.Revenue)
		}
	}
	// The myopic per-step matcher must trail G-Greedy.
	if myopic := byName["Myopic Max-DCS per step"]; myopic.Revenue > gg.Revenue+1e-9 {
		t.Fatalf("myopic %v beats GG %v", myopic.Revenue, gg.Revenue)
	}
	if !strings.Contains(res.Render(), "Ablation") {
		t.Fatal("render missing title")
	}
}
