// Package solver is the unified entry point to the RevMax algorithm
// suite: one Solve call, one Options struct, and a global registry that
// makes every algorithm — the §5 greedies, the staged §6.3 variants,
// the §6.1 baselines, the §4.2 local-search approximation, and the
// exhaustive validator — nameable from a string. Configuration files,
// CLI flags, scenario declarations, and serving-daemon configs all
// resolve algorithms through Lookup instead of maintaining their own
// string→function switches.
//
// Every algorithm runs under a context.Context: cancellation and
// deadlines propagate into the long-running inner loops (the RL-Greedy
// permutation loop, the G-Greedy lazy-forward scan, the local search's
// oracle calls), which abort promptly with ctx.Err(). A canceled Solve
// always returns a non-nil error — a partial Result is only ever handed
// back alongside one. Options.Progress observes long runs in flight.
//
//	res, err := solver.Solve(ctx, in, solver.Options{
//	    Algorithm: "rl-greedy",
//	    Perms:     20,
//	    Progress:  func(p solver.Progress) { log.Printf("%d/%d", p.Done, p.Total) },
//	})
//
// Registration is open: external packages can Register additional
// Algorithm implementations (names are unique; Register panics on
// duplicates, mirroring database/sql.Register).
package solver

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/revenue"
)

// DefaultAlgorithm is the registry name resolved when Options.Algorithm
// is empty: Global Greedy, the paper's strongest polynomial heuristic.
const DefaultAlgorithm = "g-greedy"

// Result is the output of an algorithm run (an alias of core.Result, so
// values flow freely between the registry and direct core calls).
type Result = core.Result

// Progress is one in-flight progress report; see core.Progress.
type Progress = core.Progress

// ProgressFn receives progress reports; see core.ProgressFn.
type ProgressFn = core.ProgressFn

// Options configures a Solve call. The zero value selects
// DefaultAlgorithm with library defaults; unused fields are ignored by
// algorithms that do not consume them.
type Options struct {
	// Algorithm is the registry name to run ("g-greedy", "rl-greedy",
	// "top-revenue", ...; List() enumerates, aliases like "GG" resolve
	// case-insensitively). Empty means DefaultAlgorithm.
	Algorithm string

	// Perms is the RL-Greedy family's permutation count (§5.2; the paper
	// uses N = 20). ≤ 0 means 5.
	Perms int

	// Seed drives every randomized algorithm (RL-Greedy sampling, the
	// Monte-Carlo capacity oracle). Fixed seed ⇒ deterministic output.
	Seed uint64

	// Workers is rl-greedy-parallel's number of simultaneous
	// permutation runs (≤ 0 means GOMAXPROCS).
	Workers int

	// Cuts are the sub-horizon cut-offs of the staged variants (§6.3):
	// [c₁, c₂, ...] splits [1,T] into [1,c₁], [c₁+1,c₂], ..., [last+1,T].
	Cuts []int

	// Epsilon tunes the local-search approximation guarantee 1/(4+ε)
	// (§4.2). ≤ 0 means 0.25.
	Epsilon float64

	// Oracle is the capacity oracle local-search maximizes effective
	// revenue with (Definition 4). nil means the exact DP oracle.
	Oracle revenue.CapacityOracle

	// Rating supplies predicted ratings to the top-rating baseline,
	// which errors without one.
	Rating core.RatingFn

	// Warm seeds g-greedy, the one algorithm that supports it, with a
	// previous plan's triples for incremental replanning: still-feasible
	// seeds are re-validated and re-scored on the instance, invalidated
	// ones (adopted class, depleted stock, repriced below profitability)
	// are dropped, and the lazy-forward scan resumes from the seeded
	// state. Algorithms without warm support ignore it. Warm-started
	// solves generally differ from cold solves — leave nil when cold
	// byte-identity matters (fixed-seed goldens).
	Warm []model.Triple

	// Session, when non-nil, routes the solve through a persistent
	// incremental core.Session instead of a from-scratch scan: the
	// session already holds the instance, heap, plan, and evaluator
	// from the previous replan, and only journal-dirtied candidates are
	// recomputed. Only "g-greedy" consumes it (see CheckSession) — the
	// session's output is byte-identical to g-greedy on the equivalent
	// residual instance. Other algorithms ignore it. When set, the in
	// argument to Solve is ignored in favor of Session.Instance(), and
	// Warm is ignored — the session carries its own seed
	// (SessionConfig.Seeded).
	Session *core.Session

	// Progress, when non-nil, receives in-flight reports from long
	// algorithms (per permutation for the RL-Greedy family, per
	// selection for the greedy scans) with Progress.Algorithm set to the
	// resolved registry name. Must be fast; may be called from the
	// solving goroutine only (parallel runs serialize calls).
	Progress ProgressFn

	// Span, when non-nil, is the parent trace span this solve runs
	// under: Solve attaches a "solve" child annotated with the resolved
	// algorithm, phase timings (candidate scan vs selection), and the
	// solve counters from Result.Stats. A nil Span (the default) costs
	// nothing — obs spans are nil-receiver no-ops.
	Span *obs.Span
}

// withDefaults fills the documented zero-value defaults.
func (o Options) withDefaults() Options {
	if o.Algorithm == "" {
		o.Algorithm = DefaultAlgorithm
	}
	if o.Perms <= 0 {
		o.Perms = 5
	}
	return o
}

// progressFor wraps Options.Progress so every report carries the
// resolved algorithm name; nil stays nil.
func (o Options) progressFor(name string) core.ProgressFn {
	if o.Progress == nil {
		return nil
	}
	fn := o.Progress
	return func(p core.Progress) {
		p.Algorithm = name
		fn(p)
	}
}

// Algorithm is one registered solving strategy. Implementations must be
// safe for concurrent Solve calls on distinct instances and must honor
// ctx: on cancellation, return promptly with a non-nil error (ctx.Err()
// or one wrapping it); a partial Result may accompany the error but
// must never be returned without one.
type Algorithm interface {
	// Name is the canonical registry name (lower-case kebab, unique).
	Name() string
	// Solve runs the algorithm on in under ctx.
	Solve(ctx context.Context, in *model.Instance, opts Options) (Result, error)
}

// funcAlgorithm adapts a plain function to the Algorithm interface.
type funcAlgorithm struct {
	name string
	fn   func(ctx context.Context, in *model.Instance, opts Options) (Result, error)
}

func (a funcAlgorithm) Name() string { return a.name }

// Solve applies the documented Options defaults before running fn, so
// the zero-value contract holds on every entry path — Lookup(...).Solve
// called directly behaves exactly like the package-level Solve.
func (a funcAlgorithm) Solve(ctx context.Context, in *model.Instance, opts Options) (Result, error) {
	return a.fn(ctx, in, opts.withDefaults())
}

// Func wraps fn as a registrable Algorithm named name.
func Func(name string, fn func(ctx context.Context, in *model.Instance, opts Options) (Result, error)) Algorithm {
	return funcAlgorithm{name: name, fn: fn}
}

// registry is the process-global name→Algorithm table plus an alias
// layer mapping the paper's legend names ("GG", "RLG", ...) onto the
// canonical kebab names.
var registry = struct {
	sync.RWMutex
	byName  map[string]Algorithm
	aliases map[string]string
}{
	byName:  make(map[string]Algorithm),
	aliases: make(map[string]string),
}

// normalize canonicalizes a lookup key: names and aliases are matched
// case-insensitively.
func normalize(name string) string { return strings.ToLower(strings.TrimSpace(name)) }

// Register adds a to the global registry. It panics if the name is
// empty, already registered, or shadowed by an alias — registration
// happens in init functions, where a loud failure beats a silent
// override.
func Register(a Algorithm) {
	name := normalize(a.Name())
	if name == "" {
		panic("solver: Register with empty algorithm name")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.byName[name]; dup {
		panic(fmt.Sprintf("solver: algorithm %q registered twice", name))
	}
	if _, dup := registry.aliases[name]; dup {
		panic(fmt.Sprintf("solver: algorithm name %q collides with an alias", name))
	}
	registry.byName[name] = a
}

// RegisterAlias maps alias onto an already-registered canonical name,
// so legacy spellings ("GG", "TopRev") keep resolving. It panics on
// collisions or dangling targets.
func RegisterAlias(alias, canonical string) {
	alias, canonical = normalize(alias), normalize(canonical)
	registry.Lock()
	defer registry.Unlock()
	if _, ok := registry.byName[canonical]; !ok {
		panic(fmt.Sprintf("solver: alias %q targets unregistered algorithm %q", alias, canonical))
	}
	if _, dup := registry.byName[alias]; dup {
		panic(fmt.Sprintf("solver: alias %q collides with an algorithm name", alias))
	}
	if _, dup := registry.aliases[alias]; dup {
		panic(fmt.Sprintf("solver: alias %q registered twice", alias))
	}
	registry.aliases[alias] = canonical
}

// Lookup resolves a name or alias (case-insensitively) to its
// Algorithm. The error lists the known names, so a typo in a config
// file or CLI flag produces an actionable message.
func Lookup(name string) (Algorithm, error) {
	key := normalize(name)
	if key == "" {
		key = DefaultAlgorithm
	}
	registry.RLock()
	defer registry.RUnlock()
	if target, ok := registry.aliases[key]; ok {
		key = target
	}
	if a, ok := registry.byName[key]; ok {
		return a, nil
	}
	known := make([]string, 0, len(registry.byName))
	for n := range registry.byName {
		known = append(known, n)
	}
	sort.Strings(known)
	return nil, fmt.Errorf("solver: unknown algorithm %q (known: %s)", name, strings.Join(known, ", "))
}

// List returns the canonical names of every registered algorithm,
// sorted; aliases are not included.
func List() []string {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]string, 0, len(registry.byName))
	for n := range registry.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Aliases returns the alias→canonical map (a copy), for documentation
// and tooling.
func Aliases() map[string]string {
	registry.RLock()
	defer registry.RUnlock()
	out := make(map[string]string, len(registry.aliases))
	for a, c := range registry.aliases {
		out[a] = c
	}
	return out
}

// ValidateOptions reports whether opts are sufficient for the named
// algorithm to run on any valid instance — the checks that need no
// instance, e.g. top-rating's required Rating predictor. Callers that
// adapt Solve into an error-free signature (planner.Named, the serving
// engine's replan loop) use this to fail at construction instead of
// silently degrading at plan time.
func ValidateOptions(opts Options) error {
	opts = opts.withDefaults()
	a, err := Lookup(opts.Algorithm)
	if err != nil {
		return err
	}
	if a.Name() == NameTopRating && opts.Rating == nil {
		return fmt.Errorf("solver: %q requires Options.Rating", NameTopRating)
	}
	return nil
}

// CheckSession reports whether the named algorithm (a name or alias;
// empty means DefaultAlgorithm) can replan through a persistent
// core.Session (Options.Session): only g-greedy replays the session's
// selection loop. Serving configs with incremental replanning call it
// at construction; revmaxd calls it before generating a dataset.
func CheckSession(name string) error {
	a, err := Lookup(name)
	if err != nil {
		return err
	}
	if a.Name() != NameGGreedy {
		return fmt.Errorf("solver: Incremental requires %q, not %q", NameGGreedy, a.Name())
	}
	return nil
}

// CheckServable reports whether the named algorithm (a name or alias;
// empty means DefaultAlgorithm) can plan for serving. Serving installs
// the candidate-indexed Result.Plan as is, so the plan must exist and
// respect every constraint. Two registry algorithms fail that:
// top-rating, whose strategy repeats top-rated items at q = 0 steps and
// so has no Plan, and local-search, which solves R-REVMAX — capacity
// relaxed into the objective — so its plans can recommend an item to
// more users than its capacity. serve and cluster construction call it.
func CheckServable(name string) error {
	a, err := Lookup(name)
	if err != nil {
		return err
	}
	switch a.Name() {
	case NameTopRating:
		return fmt.Errorf("solver: %q returns no candidate-indexed plan, so it cannot serve", NameTopRating)
	case NameLocalSearch:
		return fmt.Errorf("solver: %q solves R-REVMAX, which relaxes item capacity into the objective, so its plans can exceed capacity and cannot serve", NameLocalSearch)
	}
	return nil
}

// Solve resolves opts.Algorithm through the registry and runs it on in
// under ctx. It is the single dispatch point every execution path —
// CLIs, the serving daemon, the scenario engine, the experiment harness
// — goes through. An already-canceled ctx returns before any work.
func Solve(ctx context.Context, in *model.Instance, opts Options) (Result, error) {
	if in == nil {
		return Result{}, errors.New("solver: nil instance")
	}
	opts = opts.withDefaults()
	a, err := Lookup(opts.Algorithm)
	if err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	sp := opts.Span.Child("solve")
	if sp == nil {
		return a.Solve(ctx, in, opts)
	}
	sp.SetStr("algorithm", a.Name())
	start := time.Now()
	res, err := a.Solve(ctx, in, opts)
	annotateSolveSpan(sp, start, res, err)
	sp.End()
	return res, err
}

// annotateSolveSpan records the solve's outcome and phase breakdown on
// its trace span: attributes from Result.Stats plus reconstructed
// candidate-scan and selection child spans when the algorithm reported
// phase timings.
func annotateSolveSpan(sp *obs.Span, start time.Time, res Result, err error) {
	sp.SetInt("selections", int64(res.Selections))
	sp.SetInt("recomputations", int64(res.Recomputations))
	sp.SetFloat("revenue", res.Revenue)
	st := res.Stats
	if st.Considered > 0 {
		sp.SetInt("candidates_scanned", int64(st.Considered))
	}
	if st.HeapPops > 0 {
		sp.SetInt("heap_pops", int64(st.HeapPops))
	}
	if st.WarmKept > 0 || st.WarmDropped > 0 {
		sp.SetInt("warm_kept", int64(st.WarmKept))
		sp.SetInt("warm_dropped", int64(st.WarmDropped))
	}
	if err != nil {
		sp.SetStr("error", err.Error())
	}
	if st.ScanNanos > 0 || st.SelectNanos > 0 {
		scan := time.Duration(st.ScanNanos)
		sp.ChildSpan("candidate-scan", start, scan)
		sp.ChildSpan("selection", start.Add(scan), time.Duration(st.SelectNanos))
	}
}
