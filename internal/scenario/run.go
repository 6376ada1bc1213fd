package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/revenue"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/solver"
)

// Runner executes scenarios. The zero value plans with each scenario's
// declared Algorithm (default G-Greedy), resolved through the solver
// registry, and runs closed-loop trajectories on pure in-memory
// engines. Setting DataDir moves the trajectories onto durable engines
// (WAL + snapshots, see internal/store); adding CrashRecover turns the
// runner into the crash-injection harness: every trajectory's engine is
// killed (kill -9 semantics) at a deterministic pseudo-random step and
// recovered from disk mid-flight. Because recovery rebuilds serving
// state bit-identically, a crashed-and-recovered run produces the same
// canonical Outcome as an undisturbed one — the determinism contract
// the durability subsystem is tested against.
type Runner struct {
	// DataDir, when non-empty, backs every closed-loop trajectory with a
	// durable engine rooted at DataDir/<scenario>-seed<seed>-traj<k>.
	// Small WAL segments are used so even short runs exercise rotation
	// and compaction.
	DataDir string
	// CrashRecover, with DataDir set, kills each trajectory's engine at
	// a deterministic pseudo-random step boundary — after checkpointing
	// roughly halfway there — and recovers it from disk before
	// continuing the trajectory. With Shards ≥ 2 the kill hits one
	// deterministically chosen victim shard instead of the whole
	// engine, exercising the cluster's single-shard recovery path.
	CrashRecover bool
	// Shards, when ≥ 2, runs every closed-loop trajectory on a
	// user-sharded cluster (internal/cluster) of that many engines
	// behind the coordinator, instead of a single serve.Engine. The
	// coordinated-replan protocol makes the two modes byte-identical:
	// equal (scenario, seed) pairs produce equal canonical Outcomes at
	// any shard count — the equivalence CI asserts. 0 or 1 keeps the
	// single-engine path.
	Shards int
	// WarmStart and Incremental are the serving configs' switches of the
	// same names, and Workers is their solver.Options.Workers (revmaxd's
	// -workers; only rl-greedy-parallel reads it). Closed-loop
	// trajectories always plan through a registry config —
	// Scenario.Algorithm plus a seed derived from (scenario, seed) —
	// exactly as revmaxd does; Incremental needs g-greedy. The planning
	// seed is the open loop's, so runs differing only in Incremental or
	// Workers stay byte-comparable.
	WarmStart   bool
	Workers     int
	Incremental bool
}

// sharded reports whether closed-loop trajectories run on a cluster.
func (r Runner) sharded() bool { return r.Shards >= 2 }

// engineLike is the closed-loop surface the trajectory drives; both
// serve.Engine (single) and cluster.Cluster (sharded) satisfy it, which
// is what lets one harness assert the two are byte-identical.
type engineLike interface {
	RecommendBatch(users []model.UserID, t model.TimeStep) ([][]serve.Recommendation, error)
	Feed(ev serve.Event) error
	Flush()
	SetNow(t model.TimeStep) error
	SetStock(i model.ItemID, n int) error
	ScalePrice(i model.ItemID, from model.TimeStep, factor float64) error
	Stock(i model.ItemID) (int, error)
	Strategy() *model.Strategy
	Stats() serve.Stats
	Checkpoint() error
	Close()
}

// crashFn kills the serving side at a step barrier and returns whatever
// continues the trajectory: a freshly recovered engine in single mode, or
// the same cluster after its victim shard is killed and recovered.
type crashFn func(cur engineLike) (engineLike, error)

// engineConfig builds the serving config for one closed-loop
// trajectory; with DataDir set the engine is durable.
func (r Runner) engineConfig(sc Scenario, seed uint64, k int) serve.Config {
	cfg := serve.Config{
		Algorithm:   sc.Algorithm,
		Solver:      solver.Options{Seed: instanceSeed(sc.Name, seed) ^ 0x5F5E, Workers: r.Workers},
		WarmStart:   r.WarmStart,
		Incremental: r.Incremental,
		Shards:      4,
		// Replans happen only at step boundaries (SetNow forces one;
		// Flush covers pending adoptions), keeping trajectories
		// independent of feedback-queue timing.
		ReplanEvery: 1 << 30,
	}
	if r.DataDir != "" {
		cfg.Durability = &serve.Durability{
			Dir:          filepath.Join(r.DataDir, fmt.Sprintf("%s-seed%d-traj%d", sc.Name, seed, k)),
			SegmentBytes: 4096,
		}
	}
	return cfg
}

// clusterConfig is engineConfig's sharded twin: same planning policy
// and per-trajectory durable root, but the barrier replan happens in
// the coordinator and the lock stripes live inside each shard engine.
func (r Runner) clusterConfig(sc Scenario, seed uint64, k int) cluster.Config {
	cfg := cluster.Config{
		Shards:      r.Shards,
		Algorithm:   sc.Algorithm,
		Solver:      solver.Options{Seed: instanceSeed(sc.Name, seed) ^ 0x5F5E, Workers: r.Workers},
		WarmStart:   r.WarmStart,
		Incremental: r.Incremental,
		ReplanEvery: 1 << 30,
	}
	if r.DataDir != "" {
		cfg.Durability = &serve.Durability{
			Dir:          filepath.Join(r.DataDir, fmt.Sprintf("%s-seed%d-traj%d", sc.Name, seed, k)),
			SegmentBytes: 4096,
		}
	}
	return cfg
}

// victimShard picks which shard trajectory k's crash kills — the same
// pseudo-random mix as crashPlan so (scenario, seed, k) fully determines
// the fault, independent of everything else.
func (r Runner) victimShard(sc Scenario, seed uint64, k int) int {
	h := instanceSeed(sc.Name+"#victim", seed) + uint64(k)*0x9E3779B97F4A7C15
	return int(h % uint64(r.Shards))
}

// crashPlan returns the step after whose barrier trajectory k is killed
// and the earlier step at which it checkpoints (0, 0 when crash
// injection is off). Both are pure functions of (scenario, seed, k).
func (r Runner) crashPlan(sc Scenario, seed uint64, k int, horizon int) (crashAt, checkpointAt model.TimeStep) {
	if !r.CrashRecover || r.DataDir == "" || horizon < 2 {
		return 0, 0
	}
	h := instanceSeed(sc.Name+"#crash", seed) + uint64(k)*0x9E3779B97F4A7C15
	crashAt = model.TimeStep(1 + h%uint64(horizon-1)) // in [1, horizon-1]
	checkpointAt = (crashAt + 1) / 2
	if checkpointAt < 1 {
		checkpointAt = 1
	}
	return crashAt, checkpointAt
}

// algorithmFor resolves the planning function for sc at the given run
// seed: sc.Algorithm through the solver registry. Randomized
// algorithms draw their seed from the same (name, seed) mix as the
// instance, so the whole outcome stays a pure function of the pair.
func (r Runner) algorithmFor(sc Scenario, seed uint64) (planner.Algorithm, error) {
	algo, err := planner.Named(solver.Options{
		Algorithm: sc.Algorithm,
		Seed:      instanceSeed(sc.Name, seed) ^ 0x5F5E,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
	}
	return algo, nil
}

// Run executes sc through both paths at the given seed and reports the
// outcome. Everything except Outcome.Timing is deterministic in
// (sc, seed).
func (r Runner) Run(sc Scenario, seed uint64) (Outcome, error) {
	if sc.Runs <= 0 {
		sc.Runs = 1000
	}
	if sc.Trajectories <= 0 {
		sc.Trajectories = 8
	}
	algo, err := r.algorithmFor(sc, seed)
	if err != nil {
		return Outcome{}, err
	}
	in, err := Build(sc, seed)
	if err != nil {
		return Outcome{}, err
	}
	totalCap := 0
	for i := 0; i < in.NumItems(); i++ {
		totalCap += in.Capacity(model.ItemID(i))
	}
	out := Outcome{
		Scenario:      sc.Name,
		Description:   sc.Description,
		Algorithm:     sc.Algorithm,
		Seed:          seed,
		Users:         in.NumUsers,
		Items:         in.NumItems(),
		Horizon:       in.T,
		K:             in.K,
		Candidates:    in.NumCandidates(),
		TotalCapacity: totalCap,
		Mutations:     len(sc.Timeline),
	}
	out.Invariants.TruthfulAdoption = sc.Adoption.Kind != AdoptReluctant

	prices := priceTable(in, sc.Timeline)
	shocks := stockShocksAt(sc.Timeline)

	openStart := time.Now()
	r.openLoop(sc, seed, algo, in, prices, shocks, totalCap, &out)
	out.Timing.OpenLoopMillis = float64(time.Since(openStart).Microseconds()) / 1000

	closedStart := time.Now()
	if err := r.closedLoop(sc, seed, in, prices, shocks, totalCap, &out); err != nil {
		return Outcome{}, err
	}
	out.Timing.ClosedLoopMillis = float64(time.Since(closedStart).Microseconds()) / 1000

	out.RegretVsOpenLoop = out.OpenLoop.MeanRevenue - out.ClosedLoop.MeanRevenue
	if out.OpenLoop.MeanRevenue > 0 {
		out.ClosedLoopGainPct = 100 * (out.ClosedLoop.MeanRevenue/out.OpenLoop.MeanRevenue - 1)
	}
	out.Invariants.ClosedBeatsOpen = out.ClosedLoop.MeanRevenue >= out.OpenLoop.MeanRevenue*(1-ClosedOpenTolerance)
	return out, nil
}

// openLoop plans once on the pristine instance and Monte-Carlo
// simulates the plan against the mutated world: the planner never
// learns about mid-horizon shocks or price cuts — that blindness is
// exactly what the regret metric prices.
func (r Runner) openLoop(sc Scenario, seed uint64, algo planner.Algorithm, in *model.Instance,
	prices [][]float64, shocks map[model.TimeStep][]Mutation, totalCap int, out *Outcome) {
	strat := algo(in)
	out.OpenLoop.PlannedRevenue = revenue.Revenue(in, strat)
	out.Invariants.OpenLoopStrategyValid = in.CheckValid(strat) == nil

	res := sim.Simulate(in, strat, sim.Options{
		Runs:         sc.Runs,
		Seed:         instanceSeed(sc.Name, seed) ^ 0xA5A5,
		EnforceStock: true,
		OnStep: func(t model.TimeStep, stock []int) {
			for _, m := range shocks[t] {
				if stock[m.Item] > m.Stock {
					stock[m.Item] = m.Stock
				}
			}
		},
		PriceAt: func(i model.ItemID, t model.TimeStep) float64 {
			return prices[i][t-1]
		},
	})
	out.OpenLoop.MeanRevenue = res.MeanRevenue
	out.OpenLoop.StdDev = res.StdDev
	out.OpenLoop.MeanAdoptions = res.MeanAdoptions
	out.OpenLoop.MeanStockOuts = float64(res.StockOuts) / float64(res.Runs)
	out.OpenLoop.StockUtilization = res.MeanAdoptions / float64(totalCap)
	out.OpenLoop.Replications = res.Runs
}

// closedLoop rolls the serving engine through the horizon
// Trajectories times: each step it serves RecommendBatch, draws
// adoptions from the engine's quoted conditional probabilities, feeds
// the outcomes back, applies due timeline mutations, and advances the
// clock with a forced replan — the Recommend/Adopt/Advance cycle of a
// deployed system, made deterministic by flushing at step boundaries.
func (r Runner) closedLoop(sc Scenario, seed uint64, pristine *model.Instance,
	prices [][]float64, shocks map[model.TimeStep][]Mutation, totalCap int, out *Outcome) error {
	users := make([]model.UserID, pristine.NumUsers)
	for u := range users {
		users[u] = model.UserID(u)
	}
	revs := make([]float64, sc.Trajectories)
	adoptions, stockOuts := 0, 0
	for k := 0; k < sc.Trajectories; k++ {
		// Each trajectory owns a mutable clone of the world: price cuts
		// applied mid-run must not leak into the pristine instance or
		// sibling trajectories.
		world := pristine.Clone()
		eng, crash, err := r.openServing(sc, seed, k, world)
		if err != nil {
			return fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
		if k == 0 {
			out.ClosedLoop.PlannedRevenue = revenue.Revenue(world, eng.Strategy())
		}
		tr, eng, err := r.trajectory(sc, seed, k, eng, crash, world, users, prices, shocks, out)
		if err != nil {
			eng.Close()
			return fmt.Errorf("scenario %q trajectory %d: %w", sc.Name, k, err)
		}
		revs[k] = tr.revenue
		adoptions += tr.adoptions
		stockOuts += tr.stockOuts
		eng.Close()
		st := eng.Stats()
		out.Timing.Replans += st.Replans
		if k == sc.Trajectories-1 {
			out.Timing.P50BatchMicros = st.BatchP50Micros
			out.Timing.P99BatchMicros = st.BatchP99Micros
		}
	}
	out.ClosedLoop.MeanRevenue = dist.Mean(revs)
	out.ClosedLoop.StdDev = dist.StdDev(revs)
	out.ClosedLoop.MeanAdoptions = float64(adoptions) / float64(sc.Trajectories)
	out.ClosedLoop.MeanStockOuts = float64(stockOuts) / float64(sc.Trajectories)
	out.ClosedLoop.StockUtilization = out.ClosedLoop.MeanAdoptions / float64(totalCap)
	out.ClosedLoop.Replications = sc.Trajectories
	return nil
}

// openServing boots trajectory k's serving side — a single engine, or a
// cluster when Runner.Shards ≥ 2 — and pairs it with the matching crash
// action for the crash-injection harness. Any stale durable state at the
// trajectory's directory is cleared first: Open prefers recovery over
// the fresh clone, so a leftover directory would silently replay a
// finished world.
func (r Runner) openServing(sc Scenario, seed uint64, k int,
	world *model.Instance) (engineLike, crashFn, error) {
	if r.sharded() {
		ccfg := r.clusterConfig(sc, seed, k)
		if d := ccfg.Durability; d != nil {
			if err := os.RemoveAll(d.Dir); err != nil {
				return nil, nil, fmt.Errorf("clearing trajectory dir: %w", err)
			}
		}
		cl, err := cluster.Open(world, ccfg)
		if err != nil {
			return nil, nil, err
		}
		victim := r.victimShard(sc, seed, k)
		crash := func(cur engineLike) (engineLike, error) {
			cl := cur.(*cluster.Cluster)
			// One shard dies, the rest of the fleet keeps serving: recovery
			// replays the shard's WAL and re-baselines its reservations
			// against the live coordinator.
			if err := cl.KillShard(victim); err != nil {
				return cur, err
			}
			return cl, cl.RecoverShard(victim)
		}
		return cl, crash, nil
	}
	cfg := r.engineConfig(sc, seed, k)
	if d := cfg.Durability; d != nil {
		if err := os.RemoveAll(d.Dir); err != nil {
			return nil, nil, fmt.Errorf("clearing trajectory dir: %w", err)
		}
	}
	eng, err := serve.Open(world, cfg)
	if err != nil {
		return nil, nil, err
	}
	crash := func(cur engineLike) (engineLike, error) {
		cur.(*serve.Engine).Kill()
		recovered, err := serve.Open(nil, cfg)
		if err != nil {
			return cur, err
		}
		return recovered, nil
	}
	return eng, crash, nil
}

// trajResult is one closed-loop rollout's tally.
type trajResult struct {
	revenue   float64
	adoptions int
	stockOuts int
}

// trajectory drives one full closed-loop rollout. The harness keeps
// its own stock ledger and per-user adoption record so it can verify
// the engine's answers (capacity, display, adopted-class invariants)
// rather than trusting them.
//
// Determinism: the engine is only observed at step boundaries, after
// Flush guarantees all enqueued feedback is applied and the last replan
// covering it has been installed. The interleaving of intermediate
// replans varies run to run — only their count (reported under Timing)
// is affected, never the plan the next step is served from.
//
// Under crash injection the crash action runs at the crashPlan step's
// barrier: kill-9 plus full recovery from disk for a single engine, a
// victim-shard kill and recovery for a cluster. The harness (RNG,
// ledger, adoption record) plays the surviving world, so any divergence
// in the returned tally is recovery infidelity. The possibly-replaced
// serving side is returned so the caller reads stats from the one that
// finished.
func (r Runner) trajectory(sc Scenario, seed uint64, k int, eng engineLike, crash crashFn,
	world *model.Instance, users []model.UserID,
	prices [][]float64, shocks map[model.TimeStep][]Mutation, out *Outcome) (trajResult, engineLike, error) {
	rng := dist.NewRNG(instanceSeed(sc.Name, seed)*0x2545F4914F6CDD1D + uint64(k) + 1)
	stock := make([]int, world.NumItems())
	for i := range stock {
		stock[i] = world.Capacity(model.ItemID(i))
	}
	// adoptedAt[u][c] is the step at which u adopted from class c.
	adoptedAt := make(map[model.UserID]map[model.ClassID]model.TimeStep)
	var res trajResult

	// cuts are the price mutations in timeline order; a cut touches the
	// world only once the clock reaches its activation step — the
	// closed loop must not get clairvoyant foresight of future prices.
	var cuts []Mutation
	for _, m := range sc.Timeline {
		if m.Kind == MutPriceCut {
			cuts = append(cuts, m)
		}
	}

	// applyWorld installs the mutations active at step t, all through
	// the engine so its serving-path state, durable log, and the harness
	// ledger stay in lockstep: price cuts via ScalePrice (the engine
	// rescales its instance — `world` for an unbroken trajectory, the
	// recovered instance after a crash — and logs the rescale for
	// replay), stock shocks via SetStock. Residual rows tt ≥ t carry
	// exactly the cuts with At ≤ t; future cuts stay invisible until
	// their step arrives. `eng` is the enclosing variable, so after a
	// crash-recovery swap the mutations reach the recovered engine.
	applyWorld := func(t model.TimeStep) error {
		for _, m := range cuts {
			if m.At != t {
				continue // not activating right now (earlier cuts already applied)
			}
			for _, i := range world.ClassItems(m.Class) {
				if err := eng.ScalePrice(i, m.At, m.Factor); err != nil {
					return err
				}
			}
		}
		for _, m := range shocks[t] {
			if stock[m.Item] > m.Stock {
				stock[m.Item] = m.Stock
				if err := eng.SetStock(m.Item, m.Stock); err != nil {
					return err
				}
			}
		}
		return nil
	}
	crashAt, checkpointAt := r.crashPlan(sc, seed, k, world.T)

	if err := applyWorld(1); err != nil {
		return res, eng, err
	}
	if err := eng.SetNow(1); err != nil { // forces a replan over t=1 mutations
		return res, eng, err
	}
	eng.Flush()

	for t := model.TimeStep(1); int(t) <= world.T; t++ {
		// Cross-path consistency: after a flush the engine's lock-free
		// stock must agree with the harness ledger exactly.
		for i := range stock {
			if got, err := eng.Stock(model.ItemID(i)); err != nil || got != stock[i] {
				out.Invariants.CapacityViolations++
			}
		}
		batch, err := eng.RecommendBatch(users, t)
		if err != nil {
			return res, eng, err
		}
		for ui, recs := range batch {
			u := users[ui]
			shown := 0
			for _, rec := range recs {
				if rec.Prob <= 0 {
					continue // engine suppressed it (adopted class / no stock)
				}
				c := world.Class(rec.Item)
				if at, ok := adoptedAt[u][c]; ok && at < t {
					// The engine must zero recommendations for classes the
					// user adopted from in an *earlier* step; same-step
					// duplicates were planned before the adoption was known
					// and are handled below, not counted as violations.
					out.Invariants.AdoptedClassRecs++
					continue
				}
				shown++
				coin := rng.Float64() < sc.Adoption.prob(rec.Prob)
				ev := serve.Event{User: u, Item: rec.Item, T: t}
				_, sameStep := adoptedAt[u][c]
				switch {
				case coin && !sameStep && stock[rec.Item] > 0:
					ev.Adopted = true
					stock[rec.Item]--
					ac := adoptedAt[u]
					if ac == nil {
						ac = make(map[model.ClassID]model.TimeStep)
						adoptedAt[u] = ac
					}
					ac[c] = t
					res.revenue += prices[rec.Item][t-1]
					res.adoptions++
				case coin && !sameStep:
					res.stockOuts++ // wanted it; shelf was empty
				}
				if err := eng.Feed(ev); err != nil {
					return res, eng, err
				}
			}
			if shown > world.K {
				out.Invariants.DisplayViolations++
			}
		}
		// Barrier: every event of this step is applied (and, if any
		// adoption happened, replanned over) before the world moves.
		// Under the batch fsync policy it is also a group commit: the
		// step is durable, which is what makes the kill below lossless.
		eng.Flush()
		if t == checkpointAt && crashAt > 0 {
			if err := eng.Checkpoint(); err != nil {
				return res, eng, err
			}
		}
		if t == crashAt {
			// kill -9 and rise from disk: the recovered serving side must
			// carry this trajectory to the same outcome the unbroken one
			// reaches.
			swapped, err := crash(eng)
			if err != nil {
				return res, eng, fmt.Errorf("crash recovery at step %d: %w", t, err)
			}
			eng = swapped
		}
		if int(t) < world.T {
			next := t + 1
			if err := applyWorld(next); err != nil {
				return res, eng, err
			}
			if err := eng.SetNow(next); err != nil {
				return res, eng, err
			}
			eng.Flush()
		}
	}
	return res, eng, nil
}
