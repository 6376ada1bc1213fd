package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestRegistryMatchesContract keeps BENCHMARK.json and the registry in
// spec.go one list: same workloads with the same reasons, same metrics
// with the same units and directions, in the same order.
func TestRegistryMatchesContract(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	c, err := readContract(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the registry %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := c.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the registry %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
	same := func(kind string, got []contractMetric, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json names %d metrics, the registry %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			better := "lower"
			if m.higher {
				better = "higher"
			}
			if g.Name != m.name || g.Unit != m.unit || g.Better != better {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s, %s], the registry %s [%s, %s]",
					kind, i, g.Name, g.Unit, g.Better, m.name, m.unit, better)
			}
			if !nameRE.MatchString(m.name) {
				t.Errorf("%s: name %q is outside the contract's alphabet", kind, m.name)
			}
			if bounded && !(g.Bound > 0 && g.Bound <= 0.25) {
				t.Errorf("%s: %s has bound %v, want (0, 0.25]", kind, g.Name, g.Bound)
			}
		}
	}
	same("end_to_end", c.EndToEnd, endToEnd, true)
	same("per_layer", c.PerLayer, perLayer, false)
	if endToEnd[0].name != "setup_s" || endToEnd[0].unit != "s" || endToEnd[0].higher {
		t.Errorf("the first end-to-end metric must be setup_s [s, lower]")
	}
}

// TestSmoke runs every workload in-process on a 300-user instance with
// one-second phases, untraced and traced, and requires every metric in
// the registry to be emitted, finite and unit-tagged, with every check
// passing and no operation failing.
func TestSmoke(t *testing.T) {
	set := settings{users: 300, seed: 7, steady: time.Second, boots: 1, minRounds: 2, restarts: 1}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			h := &harness{root: t.TempDir(), set: set}
			res, err := h.drive(w, func(dir string) target {
				return &inprocTarget{w: w, users: set.users, seed: set.seed, dir: filepath.Join(dir, "data")}
			})
			if err != nil {
				t.Fatal(err)
			}
			requireMetrics(t, res, endToEnd, true)

			res, err = h.traced(w)
			if err != nil {
				t.Fatal(err)
			}
			requireMetrics(t, res, perLayer, false)
			b, err := os.ReadFile(res.detail.traceFile)
			if err != nil {
				t.Fatal(err)
			}
			var file traceFile
			if err := json.Unmarshal(b, &file); err != nil || len(file.Spans) == 0 {
				t.Fatalf("span file: %d spans, %v", len(file.Spans), err)
			}
		})
	}
}

func requireMetrics(t *testing.T, res result, list []metric, positive bool) {
	t.Helper()
	for _, c := range res.detail.checks {
		t.Errorf("check failed: %s", c)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(list) {
		t.Errorf("%d metrics emitted, the registry lists %d", len(res.Metrics), len(list))
	}
	for _, m := range list {
		v, ok := res.Metrics[m.name]
		switch {
		case !ok:
			t.Errorf("%s was not emitted", m.name)
		case v.Unit != m.unit:
			t.Errorf("%s has unit %q, want %q", m.name, v.Unit, m.unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s = %v is not finite", m.name, v.Value)
		case positive && v.Value <= 0:
			t.Errorf("%s = %v, an end-to-end metric is never 0", m.name, v.Value)
		}
	}
	// The contract line carries exactly the four keys.
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(res.contractLine()), &line); err != nil || len(line) != 4 {
		t.Errorf("contract line has %d keys (%v): %s", len(line), err, res.contractLine())
	}
}

// TestCompareRuns pins what -compare and -aa count as beyond a bound:
// a worsening past it (an improvement too when symmetric), a metric
// missing or 0 on either side, and more failures than the base had.
func TestCompareRuns(t *testing.T) {
	c := contract{EndToEnd: []contractMetric{
		{Name: "lookup_qps", Unit: "1/s", Better: "higher", Bound: 0.25},
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	}}
	run := func(qps, setup float64, failed int) saved {
		return saved{
			Workloads: map[string]map[string]value{"lookup": {"lookup_qps": {qps, "1/s"}, "setup_s": {setup, "s"}}},
			Ops:       map[string]map[string]opCount{"lookup": {"recommend": {Sent: 100, OK: 100 - failed, Failed: failed}}},
		}
	}
	base := run(1000, 1, 0)
	for _, tc := range []struct {
		name      string
		next      saved
		symmetric bool
		want      []string
	}{
		{"within the bounds", run(900, 1.2, 0), false, nil},
		{"throughput fell", run(700, 1, 0), false, []string{"lookup/lookup_qps"}},
		{"set-up grew", run(1000, 1.3, 0), false, []string{"lookup/setup_s"}},
		{"an improvement is fine", run(2000, 0.5, 0), false, nil},
		{"but not on the same code", run(2000, 1, 0), true, []string{"lookup/lookup_qps"}},
		{"a metric that reads 0 was not measured", run(0, 1, 0), false, []string{"lookup/lookup_qps"}},
		{"new failures", run(1000, 1, 3), false, []string{"lookup/failed"}},
	} {
		got := compareRuns(c, base, tc.next, tc.symmetric)
		if len(got) != len(tc.want) || (len(got) == 1 && got[0] != tc.want[0]) {
			t.Errorf("%s: beyond %v, want %v", tc.name, got, tc.want)
		}
	}
}
