package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// saved is a run written by -out: where and how it ran, each
// workload's metrics, operation tallies and failed checks — the input
// of -compare and the format of baseline/.
type saved struct {
	Env       map[string]string             `json:"env"`
	Workloads map[string]map[string]value   `json:"workloads"`
	Ops       map[string]map[string]opCount `json:"ops"`
	Checks    map[string][]string           `json:"failed_checks"`
}

func (s *saved) add(res result) {
	if s.Workloads == nil {
		s.Workloads = make(map[string]map[string]value)
		s.Ops = make(map[string]map[string]opCount)
		s.Checks = make(map[string][]string)
	}
	m := make(map[string]value, len(res.Metrics)+len(res.detail.extra))
	for k, v := range res.Metrics {
		m[k] = v
	}
	for k, v := range res.detail.extra {
		m[k] = v
	}
	s.Workloads[res.detail.workload] = m
	s.Ops[res.detail.workload] = res.detail.ops
	s.Checks[res.detail.workload] = res.detail.checks
}

// failures counts a saved workload's failed operations and checks.
func (s *saved) failures(workload string) int {
	n := len(s.Checks[workload])
	for _, o := range s.Ops[workload] {
		n += o.Failed
	}
	return n
}

func (s *saved) write(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readSaved(path string) (saved, error) {
	var s saved
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// environment records what the numbers depend on besides the code:
// the run's settings, which two compared runs must share, and the box.
func environment(set settings) map[string]string {
	env := map[string]string{
		"users":   fmt.Sprint(set.users),
		"seed":    fmt.Sprint(set.seed),
		"seconds": fmt.Sprint(set.steady.Seconds()),
		"nproc":   fmt.Sprint(runtime.NumCPU()),
		"go":      runtime.Version(),
		"arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
	if b, err := exec.Command("uname", "-r").Output(); err == nil {
		env["kernel"] = strings.TrimSpace(string(b))
	}
	return env
}

// contract is the part of BENCHMARK.json the benchmark itself reads:
// each end-to-end metric's direction and bound.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readContract(root string) (contract, error) {
	var c contract
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return c, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return c, nil
}

// worsening is how much worse next is than base as a share of base:
// positive when the metric moved in its bad direction. base is not 0.
func worsening(base, next float64, better string) float64 {
	d := (next - base) / base
	if better == "higher" {
		return -d
	}
	return d
}

// compareRuns prints, per workload and end-to-end metric, both values,
// the change and the bound, and returns the pairs beyond their bound.
// A metric that is missing or 0 on either side, and a run with more
// failed operations and checks than its base, are beyond any bound.
// symmetric treats an improvement beyond the bound as disagreement too
// (A/A: the same code should not differ either way).
func compareRuns(c contract, base, next saved, symmetric bool) []string {
	var beyond []string
	for _, w := range workloads {
		a, okA := base.Workloads[w.name]
		b, okB := next.Workloads[w.name]
		if !okA || !okB {
			continue
		}
		fmt.Printf("== %s\n", w.name)
		if fa, fb := base.failures(w.name), next.failures(w.name); fb > fa {
			fmt.Printf("   failed operations and checks: base %d, new %d  BEYOND BOUND\n", fa, fb)
			beyond = append(beyond, w.name+"/failed")
		}
		fmt.Printf("   %-24s %14s %14s %9s %7s\n", "metric", "base", "new", "worse by", "bound")
		for _, m := range c.EndToEnd {
			va, vb := a[m.Name].Value, b[m.Name].Value
			if va == 0 || vb == 0 {
				fmt.Printf("   %-24s %14.3f %14.3f %9s %6.0f%%  NOT MEASURED\n", m.Name, va, vb, "", 100*m.Bound)
				beyond = append(beyond, w.name+"/"+m.Name)
				continue
			}
			worse := worsening(va, vb, m.Better)
			verdict := ""
			if worse > m.Bound || (symmetric && -worse > m.Bound) {
				verdict = "  BEYOND BOUND"
				beyond = append(beyond, w.name+"/"+m.Name)
			}
			fmt.Printf("   %-24s %14.3f %14.3f %+8.1f%% %6.0f%%%s\n", m.Name, va, vb, 100*worse, 100*m.Bound, verdict)
		}
	}
	return beyond
}

func compareFiles(root, basePath, nextPath string) error {
	c, err := readContract(root)
	if err != nil {
		return err
	}
	base, err := readSaved(basePath)
	if err != nil {
		return err
	}
	next, err := readSaved(nextPath)
	if err != nil {
		return err
	}
	for _, k := range []string{"users", "seed", "seconds"} {
		if base.Env[k] != next.Env[k] {
			return fmt.Errorf("the runs differ in %s (%q and %q): not comparable", k, base.Env[k], next.Env[k])
		}
	}
	if beyond := compareRuns(c, base, next, false); len(beyond) > 0 {
		return fmt.Errorf("worse than the base beyond the bound: %s", strings.Join(beyond, ", "))
	}
	return nil
}

// aa runs every workload twice on the same build and compares the two
// sets: what disagrees beyond its bound there cannot carry a verdict
// about a code change.
func (h *harness) aa(selected []workload) error {
	c, err := readContract(h.root)
	if err != nil {
		return err
	}
	var runs [2]saved
	failed := false
	for i := range runs {
		for _, w := range selected {
			res, err := h.endToEnd(w)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			fmt.Printf("run %d %s: correct=%v attempted=%d failed=%d\n", i+1, w.name, res.Correct, res.Attempted, res.Failed)
			for _, chk := range res.detail.checks {
				fmt.Printf("   CHECK FAILED: %s\n", chk)
			}
			failed = failed || !res.Correct
			runs[i].add(res)
		}
	}
	beyond := compareRuns(c, runs[0], runs[1], true)
	if failed {
		return errors.New("checks or operations failed")
	}
	if len(beyond) > 0 {
		return fmt.Errorf("A/A runs disagree beyond the bound: %s", strings.Join(beyond, ", "))
	}
	return nil
}
