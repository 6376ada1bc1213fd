// Command benchpairs runs the alternating-pairs protocol a performance
// claim needs (README § Benchmark): it checks a base ref out into a tree
// under .bench_build/, runs `go run ./bench -workload W -seed S -out …`
// on that tree and on the working tree N times each, swapping which goes
// first, and prints per workload and end-to-end metric both medians, the
// distance between the quartiles of the base's own runs, how many pairs
// the working tree won, and a verdict. A difference smaller than the
// base's own spread is reported as unresolved, never as unchanged.
//
//	go run ./cmd/benchpairs -base HEAD -workload feedback_incremental -n 10
//
// It reads only the -out files and BENCHMARK.json's metric directions and
// bounds; the benchmark itself is whatever each tree holds under bench/.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	base := flag.String("base", "HEAD", "git ref to compare the working tree against")
	workload := flag.String("workload", "feedback_incremental", "bench workload (or all)")
	seed := flag.Uint64("seed", 1, "bench seed")
	n := flag.Int("n", 10, "number of base/head pairs")
	flag.Parse()
	if err := run(*base, *workload, *seed, *n); err != nil {
		fmt.Fprintf(os.Stderr, "benchpairs: %v\n", err)
		os.Exit(1)
	}
}

func run(base, workload string, seed uint64, n int) error {
	if n < 1 {
		return fmt.Errorf("-n %d out of range (want ≥ 1)", n)
	}
	top, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	if err != nil {
		return fmt.Errorf("git rev-parse --show-toplevel: %w", err)
	}
	head := strings.TrimSpace(string(top))
	metrics, err := readMetrics(filepath.Join(head, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	dir := filepath.Join(head, ".bench_build", "pairs")
	baseTree, err := checkout(head, base, dir)
	if err != nil {
		return err
	}

	var baseRuns, headRuns []savedRun
	for i := 0; i < n; i++ {
		sides := []struct {
			tree string
			runs *[]savedRun
			name string
		}{{baseTree, &baseRuns, "base"}, {head, &headRuns, "head"}}
		if i%2 == 1 {
			sides[0], sides[1] = sides[1], sides[0]
		}
		for _, s := range sides {
			out := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%02d-%s.json", workload, seed, i, s.name))
			fmt.Fprintf(os.Stderr, "pair %d/%d: %s\n", i+1, n, s.name)
			r, err := benchOnce(s.tree, workload, seed, out)
			if err != nil {
				return fmt.Errorf("pair %d, %s: %w", i+1, s.name, err)
			}
			*s.runs = append(*s.runs, r)
		}
	}
	report(os.Stdout, metrics, baseRuns, headRuns)
	return nil
}

// checkout extracts ref into dir/base-<sha> with git archive (no worktree
// metadata is written into the repository) and returns that tree. A tree
// already extracted for the same commit is reused.
func checkout(repo, ref, dir string) (string, error) {
	out, err := exec.Command("git", "-C", repo, "rev-parse", "--verify", ref+"^{commit}").Output()
	if err != nil {
		return "", fmt.Errorf("git rev-parse %s: %w", ref, err)
	}
	sha := strings.TrimSpace(string(out))
	tree := filepath.Join(dir, "base-"+sha[:12])
	if _, err := os.Stat(filepath.Join(tree, "go.mod")); err == nil {
		return tree, nil
	}
	if err := os.MkdirAll(tree, 0o755); err != nil {
		return "", err
	}
	archive := exec.Command("git", "-C", repo, "archive", sha)
	untar := exec.Command("tar", "-x", "-C", tree)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return "", err
	}
	untar.Stdin = pipe
	archive.Stderr, untar.Stderr = os.Stderr, os.Stderr
	if err := untar.Start(); err != nil {
		return "", err
	}
	if err := archive.Run(); err != nil {
		return "", fmt.Errorf("git archive %s: %w", sha, err)
	}
	if err := untar.Wait(); err != nil {
		return "", fmt.Errorf("tar -x: %w", err)
	}
	return tree, nil
}

// savedRun is what benchpairs reads of a bench -out file.
type savedRun struct {
	Workloads map[string]map[string]struct {
		Value float64 `json:"value"`
	} `json:"workloads"`
	Ops map[string]map[string]struct {
		Failed int `json:"failed"`
	} `json:"ops"`
	Checks map[string][]string `json:"failed_checks"`
}

func (r savedRun) failures(workload string) int {
	n := len(r.Checks[workload])
	for _, o := range r.Ops[workload] {
		n += o.Failed
	}
	return n
}

// benchOnce runs the benchmark of one tree and reads the run it saved. A
// non-zero exit with a saved run is a run with failed checks or
// operations: it is kept and counted, not dropped.
func benchOnce(tree, workload string, seed uint64, out string) (savedRun, error) {
	_ = os.Remove(out) // a stale file must not stand in for a run that died
	cmd := exec.Command("go", "run", "./bench", "-workload", workload, "-seed", fmt.Sprint(seed), "-out", out)
	cmd.Dir = tree
	log, runErr := cmd.CombinedOutput()
	var r savedRun
	b, err := os.ReadFile(out)
	if err != nil {
		return r, fmt.Errorf("go run ./bench in %s: %v\n%s", tree, runErr, log)
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", out, err)
	}
	return r, nil
}

// metric is one end-to-end metric of BENCHMARK.json.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readMetrics(path string) ([]metric, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c struct {
		EndToEnd []metric `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(c.EndToEnd) == 0 {
		return nil, errors.New(path + " lists no end_to_end metrics")
	}
	return c.EndToEnd, nil
}

// quantile is the linear-interpolation quantile of sorted xs.
func quantile(xs []float64, q float64) float64 {
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// summary is one (workload, metric) row of the report.
type summary struct {
	baseMedian, headMedian float64
	baseIQR                float64 // distance between the quartiles of the base's runs
	wins                   int     // pairs in which head read better; ties count for neither side
	verdict                string
}

// summarize applies the protocol to one metric's paired readings
// (base[i] and head[i] ran back to back). The order of the tests is the
// order of the claims: a difference inside the base's own spread is
// unresolved whatever its sign, unless every head run reads better than
// every base run — that clean separation settles "no worse", but is not a
// gain; outside the spread, a worsening beyond the bound is a regression;
// a gain needs nine pairs in ten as well, and is void when the head's runs
// failed more operations and checks than the base's (baseFailed,
// headFailed: the workload's totals over all pairs).
func summarize(m metric, base, head []float64, baseFailed, headFailed int) summary {
	better := func(a, b float64) bool { // a better than b
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	var s summary
	for i := range base {
		if better(head[i], base[i]) {
			s.wins++
		}
	}
	bs := append([]float64(nil), base...)
	hs := append([]float64(nil), head...)
	sort.Float64s(bs)
	sort.Float64s(hs)
	s.baseMedian, s.headMedian = quantile(bs, 0.5), quantile(hs, 0.5)
	s.baseIQR = quantile(bs, 0.75) - quantile(bs, 0.25)
	diff := s.headMedian - s.baseMedian
	if diff < 0 {
		diff = -diff
	}
	switch {
	case diff <= s.baseIQR && better(hs[0], bs[len(bs)-1]) && better(hs[len(hs)-1], bs[0]):
		s.verdict = fmt.Sprintf("better, inside base spread (%d/%d)", s.wins, len(base))
	case diff <= s.baseIQR:
		s.verdict = "unresolved"
	case !better(s.headMedian, s.baseMedian) && s.baseMedian != 0 && diff/s.baseMedian > m.Bound:
		s.verdict = "WORSE beyond bound"
	case !better(s.headMedian, s.baseMedian):
		s.verdict = "worse within bound"
	case 10*s.wins < 9*len(base):
		s.verdict = "better, under 9 in 10"
	case headFailed > baseFailed:
		s.verdict = "gain void: more failures than base"
	default:
		s.verdict = "gain"
	}
	return s
}

func report(w io.Writer, metrics []metric, base, head []savedRun) {
	var workloads []string
	for name := range base[0].Workloads {
		workloads = append(workloads, name)
	}
	sort.Strings(workloads)
	for _, wl := range workloads {
		bf, hf := 0, 0
		for i := range base {
			bf += base[i].failures(wl)
			hf += head[i].failures(wl)
		}
		fmt.Fprintf(w, "%s: %d pairs; failed operations and checks: base %d, head %d\n", wl, len(base), bf, hf)
		if len(base) < 10 {
			fmt.Fprintln(w, "  fewer than ten pairs: quartiles of so few runs say little, read the verdicts as indicative")
		}
		fmt.Fprintf(w, "  %-28s %12s %12s %8s %12s %7s  %s\n", "metric", "base median", "head median", "change", "base q3-q1", "wins", "verdict")
		for _, m := range metrics {
			var bv, hv []float64
			for i := range base {
				b, okB := base[i].Workloads[wl][m.Name]
				h, okH := head[i].Workloads[wl][m.Name]
				if okB && okH {
					bv = append(bv, b.Value)
					hv = append(hv, h.Value)
				}
			}
			if len(bv) == 0 {
				continue
			}
			s := summarize(m, bv, hv, bf, hf)
			change := "n/a"
			if s.baseMedian != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(s.headMedian-s.baseMedian)/s.baseMedian)
			}
			fmt.Fprintf(w, "  %-28s %12.4g %12.4g %8s %12.4g %4d/%-2d  %s\n",
				m.Name+" ("+m.Unit+")", s.baseMedian, s.headMedian, change, s.baseIQR, s.wins, len(bv), s.verdict)
		}
	}
}
