// Command bench is the revmaxd end-to-end benchmark: it builds
// cmd/revmaxd, starts it as a child process on a loopback port with a
// workload's flags, drives it over HTTP on two connections, checks the
// answers, and prints every end-to-end metric by name and unit. With
// -trace 1 it hosts the same stack in this process instead and prints
// the per-layer metrics from its own spans. See README.md.
//
//	go run ./bench -workload lookup -seed 1
//	go run ./bench -workload all -seed 1 -out run.json
//	go run ./bench -workload feedback_durable -seed 1 -trace 1
//	go run ./bench -aa
//	go run ./bench -compare a.json b.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// buildDir is where everything the benchmark writes goes: the built
// daemon, each run's temp dir (data dir, daemon log), the span file.
// It sits in the checkout and is named in .gitignore.
const buildDir = ".bench_build"

// options are the command line.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	out      string
	aa       bool
	compare  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run: lookup | feedback_durable | feedback_incremental | cluster_mixed | all")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the dataset and of the traffic")
	flag.IntVar(&o.seconds, "seconds", 20, "steady-phase length in seconds (the same on every commit)")
	flag.IntVar(&o.trace, "trace", 0, "1: host the stack in-process, record spans, print the per-layer metrics")
	flag.StringVar(&o.out, "out", "", "also save the run as JSON to this file, for -compare")
	flag.BoolVar(&o.aa, "aa", false, "run every workload twice on the same build and report each metric's disagreement against its bound")
	flag.BoolVar(&o.compare, "compare", false, "compare two saved runs: -compare base.json new.json")
	flag.Parse()

	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	if o.compare {
		if len(args) != 2 {
			return errors.New("-compare wants two saved runs: -compare base.json new.json")
		}
		return compareFiles(root, args[0], args[1])
	}
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds %d out of range (want ≥ 1)", o.seconds)
	}
	var selected []workload
	if o.workload == "all" || o.aa {
		selected = workloads
	} else if w, ok := workloadByName(o.workload); ok {
		selected = []workload{w}
	} else {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	set := settings{users: instanceUsers, seed: o.seed, steady: time.Duration(o.seconds) * time.Second, boots: 5, lagBudget: 3 * time.Second, minRounds: 5, restarts: 5}
	h := &harness{root: root, set: set}
	if o.aa {
		return h.aa(selected)
	}
	all := saved{Env: environment(set)}
	failed := false
	for _, w := range selected {
		var res result
		if o.trace != 0 {
			res, err = h.traced(w)
		} else {
			res, err = h.endToEnd(w)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		report(os.Stdout, res, o.trace != 0)
		all.add(res)
		failed = failed || !res.Correct
	}
	if o.out != "" {
		if err := all.write(o.out); err != nil {
			return err
		}
	}
	if failed {
		return errors.New("checks or operations failed")
	}
	return nil
}

// repoRoot finds the module root (the directory holding cmd/revmaxd)
// at or above the working directory: go run leaves it at the root, go
// test in bench/.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "revmaxd", "main.go")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the repository: no cmd/revmaxd above the working directory")
		}
		dir = parent
	}
}

// harness owns what runs share: the built daemon and the run dirs.
type harness struct {
	root string
	set  settings
	bin  string // built lazily, once
}

func (h *harness) daemon() (string, error) {
	if h.bin != "" {
		return h.bin, nil
	}
	bin := filepath.Join(h.root, buildDir, "revmaxd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/revmaxd")
	cmd.Dir = h.root
	if outp, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/revmaxd: %v\n%s", err, outp)
	}
	h.bin = bin
	return bin, nil
}

// runDir makes a fresh temp dir for one run under the build dir.
func (h *harness) runDir(w workload) (string, error) {
	base := filepath.Join(h.root, buildDir)
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-"+w.name+"-")
}

// endToEnd runs one workload against the child process.
func (h *harness) endToEnd(w workload) (result, error) {
	bin, err := h.daemon()
	if err != nil {
		return result{}, err
	}
	return h.drive(w, func(dir string) target {
		return &procTarget{w: w, users: h.set.users, seed: h.set.seed, bin: bin, dir: dir}
	})
}

// drive runs one workload's untraced phases against the target that
// mk makes in the run's temp dir.
func (h *harness) drive(w workload, mk func(dir string) target) (result, error) {
	dir, err := h.runDir(w)
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	ref, err := buildReference(h.set.users, h.set.seed)
	if err != nil {
		return result{}, err
	}
	defer ref.eng.Close()
	tgt := mk(dir)
	defer tgt.kill()
	r := &runner{w: w, set: h.set, tgt: tgt, ref: ref}
	if err := r.run(); err != nil {
		return result{}, err
	}
	return r.res, nil
}

// report prints one workload's run: the instance, each operation's
// tally, each metric by name with its unit and sample count, failed
// checks, and the contract line last.
func report(f *os.File, res result, traced bool) {
	d := res.detail
	mode, list := "end to end, child process", endToEnd
	if traced {
		mode, list = "per layer, traced in-process", perLayer
	}
	fmt.Fprintf(f, "== %s  seed %d  (%s)\n", d.workload, d.seed, mode)
	fmt.Fprintf(f, "   instance: %s\n", d.instance)
	ops := make([]string, 0, len(d.ops))
	for name := range d.ops {
		ops = append(ops, name)
	}
	sort.Strings(ops)
	for _, name := range ops {
		o := d.ops[name]
		fmt.Fprintf(f, "   op %-10s sent %7d  ok %7d  failed %d\n", name, o.Sent, o.OK, o.Failed)
	}
	for _, m := range list {
		v := res.Metrics[m.name]
		line := fmt.Sprintf("   %-30s %14.3f %-6s", m.name, v.Value, v.Unit)
		if n, ok := d.counts[m.name]; ok {
			line += fmt.Sprintf(" n=%d", n)
		}
		fmt.Fprintln(f, strings.TrimRight(line, " "))
	}
	extras := make([]string, 0, len(d.extra))
	for name := range d.extra {
		extras = append(extras, name)
	}
	sort.Strings(extras)
	for _, name := range extras {
		v := d.extra[name]
		fmt.Fprintf(f, "   (%s %.3f %s)\n", name, v.Value, v.Unit)
	}
	if d.traceFile != "" {
		fmt.Fprintf(f, "   spans written to %s\n", d.traceFile)
	}
	for _, c := range d.checks {
		fmt.Fprintf(f, "   CHECK FAILED: %s\n", c)
	}
	fmt.Fprintln(f, res.contractLine())
}
