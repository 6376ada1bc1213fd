package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/matching"
	"repro/internal/revenue"
	"repro/internal/textplot"
)

// AblationRow is one variant measurement.
type AblationRow struct {
	Variant        string
	Revenue        float64
	Duration       time.Duration
	Recomputations int
}

// AblationResult quantifies the paper's two implementation-level design
// choices in Algorithm 1 — the two-level heap and lazy forward — plus
// the myopic per-step Max-DCS baseline the introduction argues against
// (a static exact solver rolled out step by step cannot exploit price
// dynamics, saturation, or cross-step competition). The default G-Greedy
// row solves user by user (core's per-user pass); "GG global two-level"
// forces Algorithm 1's global two-level heap loop on the same instance,
// with the same strategy and recomputations.
type AblationResult struct {
	Dataset string
	Rows    []AblationRow
}

// Ablation runs the variants on the Amazon-like dataset.
func Ablation(cfg Config) (*AblationResult, error) {
	cfg = cfg.withDefaults()
	ds, err := dataset.AmazonLike(dataset.Config{
		Seed: cfg.Seed, Scale: cfg.Scale, CapacityDist: dataset.CapGaussian,
	})
	if err != nil {
		return nil, err
	}
	in := ds.Instance
	res := &AblationResult{Dataset: ds.Name}

	measure := func(name string, f func() core.Result) {
		start := time.Now()
		r := f()
		res.Rows = append(res.Rows, AblationRow{
			Variant:        name,
			Revenue:        r.Revenue,
			Duration:       time.Since(start),
			Recomputations: r.Recomputations,
		})
	}
	measure("GG (two-level + lazy)", func() core.Result { return core.GGreedy(in) })
	measure("GG global two-level", func() core.Result { return core.GGreedyGlobal(in) })
	measure("GG single giant heap", func() core.Result { return core.GGreedySingleHeap(in) })
	measure("GG eager (no lazy fwd)", func() core.Result { return core.GGreedyEager(in) })
	measure("GG full rescan (naive)", func() core.Result { return core.NaiveGreedy(in) })

	// Myopic Max-DCS: exact per-step matching, blind across steps.
	start := time.Now()
	s, err := matching.SolveMyopic(in)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, AblationRow{
		Variant:  "Myopic Max-DCS per step",
		Revenue:  revenue.Revenue(in, s),
		Duration: time.Since(start),
	})
	return res, nil
}

// Render prints the ablation table.
func (r *AblationResult) Render() string {
	t := &textplot.Table{
		Title:   fmt.Sprintf("Ablation (%s): heap structure, lazy forward, myopic baseline", r.Dataset),
		Headers: []string{"Variant", "Revenue", "Time", "Recomputes"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Variant, textplot.Num(row.Revenue),
			row.Duration.Round(time.Microsecond).String(), fmt.Sprint(row.Recomputations))
	}
	var b strings.Builder
	b.WriteString(t.Render())
	b.WriteString("\nExpected shape: all G-Greedy variants earn (near-)identical revenue;\n")
	b.WriteString("lazy forward cuts recomputations; the naive rescan is asymptotically\n")
	b.WriteString("slower; the myopic exact matcher trails G-Greedy's revenue because it\n")
	b.WriteString("cannot reason across time steps.\n")
	return b.String()
}
