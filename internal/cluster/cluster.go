// Package cluster scales online serving past one engine: it partitions
// the user base across N serve.Engine shards — each with its own
// lock-striped user store, feedback loop, write-ahead log, and
// observability registry — behind a router that fans requests to the
// owning shard, while a coordinator owns the only cross-shard state
// (per-item stock and distinct-user display quotas) and keeps the
// whole fleet on one globally consistent plan.
//
// The partitioning leans on REVMAX's structure: every constraint of
// the model except item capacity is user-local (display slots per user
// per step, one adoption per competition class per user, saturation
// memory per user), so shards serve and absorb feedback with no
// cross-talk at all. The two couplings that remain — remaining stock,
// and the ≤ qᵢ distinct users an item may be shown to — are owned by
// the coordinator: stock flows to shards as optimistic reservations
// reconciled at flush barriers (see coord.go), and quotas are enforced
// by planning globally.
//
// Planning is coordinator-driven: at each flush barrier that saw new
// adoptions or an exogenous change, the coordinator gathers every
// shard's feedback into one global view, solves the global residual
// instance ONCE with the configured algorithm, and installs per-shard
// slices of the resulting candidate-indexed plan. Shard engines run
// install-only (serve.Config.InstallOnly): they never solve or replan,
// and a slice reaches them through serve.Engine.InstallPlan already in
// their own CandID space, so a shard's planning work is indexing it for
// serving. The payoff is exact equivalence: a cluster of any shard
// count runs the same algorithm-invocation sequence on the same
// residual instances as a single engine and therefore produces
// byte-identical outcomes — which internal/scenario asserts across the
// whole archetype catalog.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/revenue"
	"repro/internal/serve"
	"repro/internal/solver"
	"repro/internal/store"
)

// coordTraceOrigin is the coordinator tracer's ID origin (top 16 bits
// of every minted span ID). Shard k's engine tracer uses origin k+1, so
// coordinator and shard spans merged into one /debug/traces view never
// collide; 0xFFFF keeps the coordinator clear of any realistic shard
// count.
const coordTraceOrigin = 0xFFFF

// Config tunes a Cluster. Planning fields mirror serve.Config — they
// configure the coordinator's global solves; shard engines never solve.
type Config struct {
	// Shards is the number of serve.Engine shards the user base is
	// striped across. Must be ≥ 1 and ≤ the instance's user count (an
	// empty shard would serve nobody and skew reconciliation).
	Shards int
	// Algorithm names the registered solver for coordinated replans
	// (empty falls back like serve.Config.Algorithm). Only a servable
	// algorithm, one that returns a candidate-indexed plan within every
	// constraint, is accepted (solver.CheckServable): construction
	// rejects top-rating and local-search.
	Algorithm string
	// Solver carries the named algorithm's options.
	Solver solver.Options
	// WarmStart and Incremental select how the coordinator's replan
	// step solves, as for a single engine (planner.ReplanConfig): an
	// incremental coordinator diffs each barrier's merged shard feedback
	// into its session. Shard engines are unaffected — they never solve.
	WarmStart   bool
	Incremental bool
	// ReplanEvery is the adoption cadence of the self-driving barrier:
	// every ReplanEvery-th adoption fed schedules a coordinated replan
	// (≤ 0 means 32, serve.Config's default). Shard engines never plan,
	// so it is not passed to them.
	ReplanEvery int
	// QueueDepth is each shard's feedback-queue buffer.
	QueueDepth int
	// Durability, when non-nil with a Dir, makes the whole cluster
	// durable: Dir becomes the cluster root, shard k logs under
	// shard-<k>/ and the coordinator ledger under coord/. Durable
	// clusters are created with Open; New rejects a durable config.
	Durability *serve.Durability
	// Logger, when non-nil, receives the cluster's structured log
	// records (barrier summaries, SLO breaches); shard engines log
	// through the same logger with a shard=<k> attribute. nil disables
	// logging entirely.
	Logger *slog.Logger
	// SlowThreshold is passed to every shard engine: sampled requests
	// at or above it emit a slow-request log record. 0 disables.
	SlowThreshold time.Duration
	// SLO tunes both the per-shard engine watchdogs and the cluster's
	// own coordinator-level watchdog (barrier duration, cluster-wide
	// error rate, global plan staleness). Zero value = defaults on.
	SLO serve.SLOConfig
}

// shardConfig builds shard k's serve.Config — the one builder behind
// boot, full recovery and RecoverShard. The engine is install-only: the
// coordinator plans for it. The observability plane is threaded through
// — shard k's tracer mints span IDs with origin k+1 so its spans
// correlate collision-free with the coordinator's in the merged
// /debug/traces view, and its logger carries a shard=<k> attribute.
func shardConfig(cfg Config, k int) serve.Config {
	sc := serve.Config{
		InstallOnly:   true,
		QueueDepth:    cfg.QueueDepth,
		Logger:        shardLogger(cfg.Logger, k),
		SlowThreshold: cfg.SlowThreshold,
		SLO:           cfg.SLO,
		TraceOrigin:   uint16(k + 1),
	}
	if d := cfg.Durability; d != nil && d.Dir != "" {
		sd := *d
		sd.Dir = filepath.Join(d.Dir, fmt.Sprintf("shard-%d", k))
		sc.Durability = &sd
	}
	return sc
}

// shardLogger decorates the cluster logger with the shard index every
// record from that engine will carry (nil in, nil out).
func shardLogger(l *slog.Logger, k int) *slog.Logger {
	if l == nil {
		return nil
	}
	return l.With("shard", k)
}

// Cluster is a user-sharded fleet of serving engines behind one
// router. All exported methods are safe for concurrent use.
type Cluster struct {
	cfg Config
	n   int
	// global is the assembled cluster-wide instance. ScalePrice
	// publishes a freshly cloned instance with the rescaled price table
	// instead of mutating in place, so Instance() callers can read
	// concurrently with exogenous repricing without synchronization.
	global atomic.Pointer[model.Instance]

	// rp is the coordinator's replan step, the one a single engine runs
	// too. It is guarded by mu: the barrier protocol serializes every
	// solve and exogenous mutation. A recovered shell starts with a fresh
	// one, whose session (Config.Incremental) the first barrier rebuilds.
	rp *planner.Replanner

	// engMu guards the engines slice itself (RecoverShard swaps an
	// entry); the engines are internally thread-safe. Lock order:
	// mu before engMu.
	engMu   sync.RWMutex
	engines []*serve.Engine

	// plan is the live global plan, published once every shard serves
	// it. off[u] maps global user u's CandIDs to its shard's
	// (candOffsets); the candidate sets never change, so it is built once.
	plan atomic.Pointer[globalPlan]
	off  []model.CandID

	co *coordinator

	// tracer records coordinator-side spans (barrier, gather, solve,
	// install) under origin coordTraceOrigin; shard engines join its
	// traces remotely. logger and slo are the cluster-level halves of
	// the observability plane; lastReplan (unix nanos) feeds the global
	// plan-staleness objective.
	tracer     *obs.Tracer
	logger     *slog.Logger
	slo        *obs.SLOWatchdog
	lastReplan atomic.Int64

	// mu serializes the barrier protocol (flush, reconcile, replan) and
	// exogenous mutations of shared state (stock overrides, price
	// rescales, recovery, close).
	mu     sync.Mutex
	closed bool

	// dirty marks adoptions fed since the last coordinated replan;
	// force marks exogenous changes (advance, stock, price) that
	// invalidate the plan regardless. Both are consumed at barriers.
	dirty atomic.Bool
	force atomic.Bool

	// replanEvery is the resolved adoption cadence of the self-driving
	// barrier (Config.ReplanEvery, defaulted like serve.Config);
	// pendingAdopt counts adoptions not yet covered by a coordinated
	// replan. When the count reaches the cadence, Feed schedules an
	// asynchronous flush on the flusher goroutine — the cluster analogue
	// of the engine loop replanning every ReplanEvery adoptions, so a
	// daemon that only ever feeds adoptions still reconciles stock and
	// replans without any external Flush driver.
	replanEvery  int
	pendingAdopt atomic.Int64
	flushCh      chan struct{}
	quitCh       chan struct{}
	flushWG      sync.WaitGroup
	stopOnce     sync.Once

	clock   atomic.Int64
	replans atomic.Int64
	// routeErrors counts requests the router rejected before any shard
	// saw them (an unknown user); Stats adds them to the shards'
	// request errors.
	routeErrors atomic.Int64
	errMu       sync.Mutex
	err         error
}

// New builds an in-memory cluster: it solves the initial global plan,
// carves the instance into per-shard sub-instances, and starts one
// engine per shard. The instance must be finished and valid; the
// cluster takes ownership.
func New(in *model.Instance, cfg Config) (*Cluster, error) {
	if cfg.Durability != nil && cfg.Durability.Dir != "" {
		return nil, errors.New("cluster: durable clusters must be created with Open (New never recovers existing state)")
	}
	return boot(in, cfg)
}

// Open is the durable-cluster constructor and recovery entry point:
// with no Durability it is exactly New; with one it either recovers
// every shard and the coordinator ledger from the cluster root, or
// boots fresh from in, laying out shard-<k>/ and coord/ directories.
func Open(in *model.Instance, cfg Config) (*Cluster, error) {
	d := cfg.Durability
	if d == nil || d.Dir == "" {
		if in == nil {
			return nil, errors.New("cluster: nil instance and no durable state configured")
		}
		return boot(in, cfg)
	}
	if store.DirHasState(filepath.Join(d.Dir, "coord")) {
		return recoverCluster(cfg)
	}
	if in == nil {
		return nil, fmt.Errorf("cluster: data dir %q holds no recoverable state and no instance was provided", d.Dir)
	}
	return boot(in, cfg)
}

// newShell resolves the planning config and allocates the cluster
// skeleton shared by fresh boot and recovery around the global
// instance g.
func newShell(cfg Config, g *model.Instance) (*Cluster, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("cluster: shard count %d out of range (want ≥ 1)", cfg.Shards)
	}
	co := newCoordinator(cfg.Shards, g.NumItems(), func(i int) int64 {
		return int64(g.Capacity(model.ItemID(i)))
	})
	rp, err := planner.NewReplanner(planner.ReplanConfig{
		Algorithm: cfg.Algorithm, Solver: cfg.Solver, WarmStart: cfg.WarmStart, Incremental: cfg.Incremental,
	}, co.reg)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	c := &Cluster{
		cfg:         cfg,
		n:           cfg.Shards,
		rp:          rp,
		replanEvery: cfg.ReplanEvery,
		flushCh:     make(chan struct{}, 1),
		quitCh:      make(chan struct{}),
		off:         candOffsets(g, cfg.Shards),
		co:          co,
		logger:      cfg.Logger,
		tracer:      obs.NewTracer(64),
	}
	c.global.Store(g)
	c.tracer.SetOrigin(coordTraceOrigin)
	c.co.reg.CounterFunc("revmaxd_cluster_route_errors_total",
		"Requests the cluster router rejected before any shard saw them (unknown user).",
		func() float64 { return float64(c.routeErrors.Load()) })
	c.slo = newClusterSLO(c)
	if c.replanEvery <= 0 {
		c.replanEvery = 32 // serve.Config's default cadence
	}
	c.clock.Store(1)
	return c, nil
}

// startFlusher arms the background barrier driver: a goroutine that
// runs Flush whenever one is scheduled (adoption cadence reached, or an
// exogenous stock/price change with no caller around to barrier).
// Started once boot or recovery succeeds; stopped by Close/Kill. The
// cluster SLO watchdog rides the same lifecycle.
func (c *Cluster) startFlusher() {
	c.slo.Start(c.cfg.SLO.WithDefaults().Interval)
	c.flushWG.Add(1)
	go func() {
		defer c.flushWG.Done()
		for {
			select {
			case <-c.quitCh:
				return
			case <-c.flushCh:
				c.Flush()
			}
		}
	}()
}

// scheduleFlush requests an asynchronous barrier; requests arriving
// while one is already pending coalesce (the flush that runs covers
// them all).
func (c *Cluster) scheduleFlush() {
	select {
	case c.flushCh <- struct{}{}:
	default:
	}
}

// stopFlusher retires the barrier driver. Callers must NOT hold c.mu:
// the flusher may be mid-Flush waiting on it, and stopFlusher waits for
// the flusher.
func (c *Cluster) stopFlusher() {
	c.stopOnce.Do(func() { close(c.quitCh) })
	c.flushWG.Wait()
}

// boot is the cold-start path: one engine per shard (durable engines
// stamp base snapshots under their dirs), then the initial global solve
// installed on all of them.
func boot(in *model.Instance, cfg Config) (*Cluster, error) {
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if cfg.Shards > in.NumUsers {
		return nil, fmt.Errorf("cluster: shard count %d exceeds user count %d (an empty shard would serve nobody)", cfg.Shards, in.NumUsers)
	}
	c, err := newShell(cfg, in)
	if err != nil {
		return nil, err
	}
	c.engines = make([]*serve.Engine, c.n)
	for k := 0; k < c.n; k++ {
		eng, err := serve.Open(subInstance(in, c.n, k), shardConfig(cfg, k))
		if err != nil {
			c.closeEngines()
			return nil, fmt.Errorf("cluster: shard %d: %w", k, err)
		}
		c.engines[k] = eng
	}
	// Initial plan mirrors a single engine's boot: solve the raw
	// instance (not a residual) so the first plan matches what
	// serve.NewEngine would install.
	c.install(c.rp.Boot(in, nil), nil)
	if err := c.openCoordStore(); err != nil {
		c.closeEngines()
		return nil, err
	}
	if err := c.co.snapshot(); err != nil {
		c.closeEngines()
		return nil, fmt.Errorf("cluster: coordinator base snapshot: %w", err)
	}
	c.startFlusher()
	return c, nil
}

// recoverCluster rebuilds a durable cluster after a full-process
// crash: every shard engine recovers from its own directory, the
// global instance is reassembled from the shards' sub-instances, the
// coordinator ledger is replayed, and one forced coordinated replan
// puts the fleet back on a single fresh plan before Open returns.
//
// The ledger is exact when the crash hit a barrier-consistent window
// (graceful close, or kill between barriers with no un-reconciled
// drawdowns); in a torn window it is conservative — the first
// reconcile measures each recovered shard's view against the recovered
// remainder, so stock can only be released late, never over-granted.
func recoverCluster(cfg Config) (*Cluster, error) {
	engines := make([]*serve.Engine, cfg.Shards)
	closeAll := func() {
		for _, e := range engines {
			if e != nil {
				e.Close()
			}
		}
	}
	// The shell needs the global instance, which lives in the shard
	// snapshots: recover the shard engines first. They serve their
	// snapshotted slices until the coordinated replan below.
	for k := 0; k < cfg.Shards; k++ {
		eng, err := serve.Open(nil, shardConfig(cfg, k))
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("cluster: recover shard %d: %w", k, err)
		}
		engines[k] = eng
	}
	subs := make([]*model.Instance, cfg.Shards)
	for k, e := range engines {
		subs[k] = e.Instance()
	}
	global, err := assembleGlobal(subs)
	if err != nil {
		closeAll()
		return nil, err
	}
	c, err := newShell(cfg, global)
	if err != nil {
		closeAll()
		return nil, err
	}
	c.engines = engines
	if err := c.openCoordStore(); err != nil {
		closeAll()
		return nil, err
	}
	if c.co.st.HasState() {
		if err := c.co.recoverLedger(); err != nil {
			closeAll()
			c.co.st.Close()
			return nil, err
		}
	}
	// Resume the clock at the furthest point any shard reached; lagging
	// shards (killed before logging an advance) are pulled forward by
	// the coordinated replan's install below.
	clock := model.TimeStep(1)
	for _, e := range engines {
		if now := e.Now(); now > clock {
			clock = now
		}
	}
	c.clock.Store(int64(clock))
	c.force.Store(true)
	c.Flush()
	if err := c.co.snapshot(); err != nil {
		c.Close()
		return nil, fmt.Errorf("cluster: coordinator recovery snapshot: %w", err)
	}
	c.startFlusher()
	return c, nil
}

// openCoordStore opens the coordinator's durable ledger (no-op for
// in-memory clusters), placing its WAL metrics on the coordinator's
// registry.
func (c *Cluster) openCoordStore() error {
	d := c.cfg.Durability
	if d == nil || d.Dir == "" {
		return nil
	}
	st, err := store.Open(filepath.Join(d.Dir, "coord"), store.Options{
		SyncPolicy:   d.Sync,
		SyncInterval: d.SyncInterval,
		SegmentBytes: d.SegmentBytes,
		Metrics:      c.co.reg,
	})
	if err != nil {
		return fmt.Errorf("cluster: coordinator store: %w", err)
	}
	c.co.st = st
	return nil
}

func (c *Cluster) closeEngines() {
	for _, e := range c.engines {
		if e != nil {
			e.Close()
		}
	}
}

// Shards returns the cluster's shard count.
func (c *Cluster) Shards() int { return c.n }

// Tracer returns the coordinator's span tracer — barrier and replan
// phases land here; per-request spans land on the shard engines'
// tracers and are merged by Traces.
func (c *Cluster) Tracer() *obs.Tracer { return c.tracer }

// SLO returns the cluster-level watchdog (nil when Config.SLO.Disable).
func (c *Cluster) SLO() *obs.SLOWatchdog { return c.slo }

// Instance returns the current global-instance snapshot. Treat it as
// immutable: exogenous repricing (ScalePrice) publishes a fresh copy
// rather than mutating it, so the snapshot is safe to read concurrently
// — it just stops reflecting price changes made after the call.
func (c *Cluster) Instance() *model.Instance { return c.global.Load() }

// inst is the internal shorthand for the live global instance.
func (c *Cluster) inst() *model.Instance { return c.global.Load() }

// Now returns the cluster clock.
func (c *Cluster) Now() model.TimeStep { return model.TimeStep(c.clock.Load()) }

// Strategy returns the live global strategy (do not mutate). The
// serving path never needs the map-backed form, so it is built here,
// once per plan, on first request.
func (c *Cluster) Strategy() *model.Strategy {
	if gp := c.plan.Load(); gp != nil {
		return gp.strategy()
	}
	return nil
}

// Engine returns shard k's serving engine, for inspection (stats,
// traces, its served plan). Route requests, feedback and exogenous
// changes through the cluster, never through the engine: the
// coordinator owns stock, clock and plan.
func (c *Cluster) Engine(k int) *serve.Engine {
	c.engMu.RLock()
	defer c.engMu.RUnlock()
	return c.engines[k]
}

// owner validates u and returns its shard and local ID. A rejected
// request never reaches a shard, so it is counted here (routeErrors).
func (c *Cluster) owner(u model.UserID) (int, model.UserID, error) {
	if int(u) < 0 || int(u) >= c.inst().NumUsers {
		c.routeErrors.Add(1)
		return 0, 0, fmt.Errorf("cluster: unknown user %d", u)
	}
	return shardOf(u, c.n), localID(u, c.n), nil
}

// Recommend routes the lookup to u's owning shard.
func (c *Cluster) Recommend(u model.UserID, t model.TimeStep) ([]serve.Recommendation, error) {
	return c.RecommendCtx(context.Background(), u, t)
}

// RecommendCtx is Recommend with trace propagation: a span or trace ref
// carried by ctx makes the owning shard's lookup span join that trace.
// Routing is single-shard and synchronous, so a carried *Span is passed
// through as-is (the shard attaches a child on the caller's goroutine).
func (c *Cluster) RecommendCtx(ctx context.Context, u model.UserID, t model.TimeStep) ([]serve.Recommendation, error) {
	k, lu, err := c.owner(u)
	if err != nil {
		return nil, err
	}
	c.engMu.RLock()
	eng := c.engines[k]
	c.engMu.RUnlock()
	return eng.RecommendCtx(ctx, lu, t)
}

// RecommendBatch fans the batch out to the owning shards — one
// sub-batch per shard, served concurrently — and merges the results
// back into input order.
func (c *Cluster) RecommendBatch(users []model.UserID, t model.TimeStep) ([][]serve.Recommendation, error) {
	return c.RecommendBatchCtx(context.Background(), users, t)
}

// RecommendBatchCtx is RecommendBatch with trace propagation. The
// fan-out runs one goroutine per shard, so a carried *Span is demoted
// to a goroutine-shareable TraceRef (Span.Child may not be called
// concurrently): each shard opens its own remote span under the
// caller's trace rather than attaching children to the caller's span.
func (c *Cluster) RecommendBatchCtx(ctx context.Context, users []model.UserID, t model.TimeStep) ([][]serve.Recommendation, error) {
	fanCtx := context.Background()
	if ref := obs.TraceRefFromContext(ctx); ref.TraceID != 0 {
		fanCtx = obs.ContextWithTraceRef(fanCtx, ref)
	}
	groups := make([][]int, c.n)          // input positions per shard
	locals := make([][]model.UserID, c.n) // local IDs per shard, aligned
	for pos, u := range users {
		k, lu, err := c.owner(u)
		if err != nil {
			return nil, err
		}
		groups[k] = append(groups[k], pos)
		locals[k] = append(locals[k], lu)
	}
	out := make([][]serve.Recommendation, len(users))
	errs := make([]error, c.n)
	c.engMu.RLock()
	var wg sync.WaitGroup
	for k := 0; k < c.n; k++ {
		if len(groups[k]) == 0 {
			continue
		}
		wg.Add(1)
		go func(k int, eng *serve.Engine) {
			defer wg.Done()
			recs, err := eng.RecommendBatchCtx(fanCtx, locals[k], t)
			if err != nil {
				errs[k] = err
				return
			}
			for i, pos := range groups[k] {
				out[pos] = recs[i]
			}
		}(k, c.engines[k])
	}
	wg.Wait()
	c.engMu.RUnlock()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Feed routes one adoption-feedback event to the owning shard, which
// draws its local stock reservation down; an adoption also marks the
// cluster dirty so the next barrier runs a coordinated replan. The
// dirty mark happens before the enqueue, so a Flush that observes the
// event also observes the mark — and is re-asserted after the enqueue,
// so a concurrent Flush that consumed the first mark before the event
// reached the shard still leaves a replan armed for the barrier that
// first sees it. Every ReplanEvery-th adoption schedules a barrier of
// its own, the self-driving cadence a single engine's feedback loop
// has built in.
func (c *Cluster) Feed(ev serve.Event) error {
	return c.FeedCtx(context.Background(), ev)
}

// FeedCtx is Feed with trace propagation to the owning shard (same
// single-shard, same-goroutine contract as RecommendCtx).
func (c *Cluster) FeedCtx(ctx context.Context, ev serve.Event) error {
	k, lu, err := c.owner(ev.User)
	if err != nil {
		return err
	}
	if ev.Adopted {
		c.dirty.Store(true)
	}
	ev.User = lu
	c.engMu.RLock()
	eng := c.engines[k]
	c.engMu.RUnlock()
	if err := eng.FeedCtx(ctx, ev); err != nil {
		return err
	}
	if ev.Adopted {
		c.dirty.Store(true)
		if c.pendingAdopt.Add(1) >= int64(c.replanEvery) {
			c.scheduleFlush()
		}
	}
	return nil
}

// SetNow advances the cluster clock on every shard and runs the
// coordinated barrier before returning: the residual horizon changed,
// so reservations are reconciled and a fresh global plan is installed
// — the cluster-wide analogue of a single engine's forced replan on
// advance, made synchronous so an /v1/advance caller is served from the
// new plan as soon as the call returns.
func (c *Cluster) SetNow(t model.TimeStep) error {
	return c.SetNowCtx(context.Background(), t)
}

// SetNowCtx is SetNow under a caller's trace: when ctx carries a span
// or trace ref (an /v1/advance with X-Trace-Id), the coordinated
// barrier's "barrier" span joins that trace instead of opening its own.
func (c *Cluster) SetNowCtx(ctx context.Context, t model.TimeStep) error {
	if t < 1 || int(t) > c.inst().T {
		return fmt.Errorf("cluster: time step %d outside horizon [1,%d]", t, c.inst().T)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if int64(t) < c.clock.Load() {
		return fmt.Errorf("cluster: clock may not move backwards (%d < %d)", t, c.clock.Load())
	}
	c.engMu.RLock()
	for _, e := range c.engines {
		if err := e.SetNow(t); err != nil {
			c.engMu.RUnlock()
			return err
		}
	}
	c.engMu.RUnlock()
	c.clock.Store(int64(t))
	c.force.Store(true)
	c.flushLocked(obs.TraceRefFromContext(ctx))
	return nil
}

// SetStock overrides item i's remaining stock cluster-wide — an
// exogenous inventory event. The override becomes the authoritative
// remainder, is logged to the coordinator ledger, and is granted to
// every shard (through each shard's WAL); un-reconciled local
// drawdowns are erased, exactly like a single engine's override
// erasing its drawdown history. Negative n clamps to zero.
func (c *Cluster) SetStock(i model.ItemID, n int) error {
	if int(i) < 0 || int(i) >= c.inst().NumItems() {
		return fmt.Errorf("cluster: unknown item %d", i)
	}
	if n < 0 {
		n = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errors.New("cluster: closed")
	}
	c.co.stock[i] = int64(n)
	c.co.logStock(int(i), int64(n))
	c.engMu.RLock()
	for k, e := range c.engines {
		if err := e.SetStock(i, n); err != nil {
			c.engMu.RUnlock()
			return err
		}
		c.co.pushed[k][i] = int64(n)
	}
	c.engMu.RUnlock()
	c.co.updateGauges()
	c.force.Store(true)
	c.scheduleFlush()
	return nil
}

// Stock returns item i's authoritative remaining stock — the
// coordinator's remainder, which reflects every adoption reconciled so
// far (shard-local drawdowns since the last barrier are not yet
// subtracted; Flush first for an up-to-date reading).
func (c *Cluster) Stock(i model.ItemID) (int, error) {
	if int(i) < 0 || int(i) >= c.inst().NumItems() {
		return 0, fmt.Errorf("cluster: unknown item %d", i)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return int(c.co.stock[i]), nil
}

// ScalePrice multiplies item i's price by factor from step `from` on,
// on the global instance and every shard, and schedules a coordinated
// replan. Every shard engine holds the full item catalog, so the first
// shard's range check (serve.Engine.ScalePrice) rejects a bad rescale
// before any shard applies it.
func (c *Cluster) ScalePrice(i model.ItemID, from model.TimeStep, factor float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errors.New("cluster: closed")
	}
	c.engMu.RLock()
	for _, e := range c.engines {
		if err := e.ScalePrice(i, from, factor); err != nil {
			c.engMu.RUnlock()
			return err
		}
	}
	c.engMu.RUnlock()
	// Mirror the rescale on the global instance the coordinator plans
	// from (engines apply theirs through their feedback loops; the next
	// barrier flush orders both before the solve). Copy-on-write: the
	// rescaled table is built on a clone and published atomically, so
	// Instance() readers never race the price writes.
	fresh := c.inst().Clone()
	fresh.ScalePrice(i, from, factor)
	c.global.Store(fresh)
	// An incremental session plans from its own instance clone; the same
	// record keeps its price table bit-identical to the published global's.
	c.rp.Apply(store.Record{Type: store.RecScalePrice, Item: int32(i), T: int32(from), Factor: factor})
	c.force.Store(true)
	c.scheduleFlush()
	return nil
}

// Flush is the cluster-wide barrier: every event fed before the call
// is applied on its shard, stock reservations are reconciled through
// the coordinator, and — if any adoption or exogenous change occurred
// since the last barrier — one coordinated global replan installs
// fresh plan slices on every shard. On return the fleet serves one
// consistent plan and, for durable clusters, everything flushed has
// been fsynced (shard WALs and coordinator ledger).
//
// Callers rarely need to drive it: the cluster barriers itself — every
// ReplanEvery-th adoption schedules one, exogenous stock/price changes
// schedule one, and SetNow runs one synchronously. Explicit Flush
// remains the deterministic synchronization point for tests and
// snapshots.
func (c *Cluster) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushLocked(obs.TraceRef{})
}

// flushLocked runs one barrier under a coordinator trace: a root span
// named "barrier" (joining ref's trace when the barrier was caused by a
// traced request, e.g. an /v1/advance carrying X-Trace-Id) with drain,
// reconcile, gather/merge/solve/slice, and install children. Every
// shard's install span joins the same trace remotely, so the merged
// /debug/traces view shows one coordinated timeline. Barriers that find
// no work drop their span unpublished — the 1s background ticks of an
// idle cluster never reach the ring, the histogram, or the log.
func (c *Cluster) flushLocked(ref obs.TraceRef) {
	if c.closed {
		return
	}
	t0 := time.Now()
	sp := c.tracer.StartRemote("barrier", ref.TraceID, ref.ParentID)
	// Barrier 1: drain every shard's queue so reconciliation and
	// feedback gathering see all events fed before Flush.
	drain := sp.Child("drain")
	c.flushEngines()
	drain.End()
	rec := sp.Child("reconcile")
	granted, charged := c.reconcileLocked()
	rec.End()
	dirty := c.dirty.Swap(false)
	force := c.force.Swap(false)
	// A charged drawdown means adoptions happened since the last
	// barrier even if their dirty mark was consumed by a racing flush
	// (Feed marks before it enqueues): the barrier that first observes
	// an adoption's effects owes the coordinated replan a single engine
	// would have run.
	if charged {
		dirty = true
	}
	replanned := dirty || force
	if replanned {
		c.pendingAdopt.Store(0)
		// Each shard's install is queued behind the grants above, so the
		// installs also wait for them.
		c.replanLocked(sp)
	} else if granted {
		// No replan, but reconciliation re-granted stock views; apply
		// them before returning.
		c.flushEngines()
	}
	c.syncEngines()
	c.co.sync()
	c.setErr(c.co.err)
	if !replanned && !granted {
		sp.Drop()
		return
	}
	d := time.Since(t0)
	c.co.barrierSec.Observe(d.Seconds())
	sp.SetInt("shards", int64(c.n))
	if replanned {
		sp.SetInt("replanned", 1)
	}
	sp.End()
	if c.logger != nil {
		obs.WithTrace(c.logger, sp).Info("barrier complete",
			"replanned", replanned, "granted", granted,
			"duration_ms", d.Milliseconds(), "shards", c.n)
	}
}

func (c *Cluster) flushEngines() {
	c.engMu.RLock()
	defer c.engMu.RUnlock()
	for _, e := range c.engines {
		e.Flush()
	}
}

func (c *Cluster) syncEngines() {
	c.engMu.RLock()
	defer c.engMu.RUnlock()
	for _, e := range c.engines {
		if err := e.Sync(); err != nil {
			c.setErr(err)
		}
	}
}

// reconcileLocked settles the optimistic stock reservations: each
// shard's drawdown since its last grant is charged against the
// authoritative remainder (floored at zero — the same clamp a single
// engine applies), changed remainders are logged to the coordinator
// ledger, and any shard whose view diverged from the new remainder is
// re-granted. Returns whether any grant was pushed (the caller owes an
// engine flush to apply it) and whether any drawdown was charged (the
// caller owes a coordinated replan covering the adoptions behind it).
func (c *Cluster) reconcileLocked() (granted, charged bool) {
	co := c.co
	c.engMu.RLock()
	defer c.engMu.RUnlock()
	views := make([]int64, c.n)
	for i := range co.stock {
		item := model.ItemID(i)
		var draw int64
		for k, e := range c.engines {
			v, err := e.Stock(item)
			if err != nil {
				// Unreachable for in-range items; treat as no drawdown.
				views[k] = co.pushed[k][i]
				continue
			}
			views[k] = int64(v)
			if d := co.pushed[k][i] - int64(v); d > 0 {
				draw += d
			}
		}
		if draw > 0 {
			charged = true
			r := co.stock[i] - draw
			if r < 0 {
				r = 0
			}
			co.stock[i] = r
			co.logStock(i, r)
		}
		for k, e := range c.engines {
			if views[k] == co.stock[i] {
				co.pushed[k][i] = views[k]
				continue
			}
			if err := e.SetStock(item, int(co.stock[i])); err != nil {
				// A killed shard can't accept grants mid-barrier; the
				// condition is transient — RecoverShard re-baselines the
				// shard's view against the ledger — so it is not recorded
				// as a cluster failure.
				if !errors.Is(err, serve.ErrClosed) {
					c.setErr(err)
				}
				continue
			}
			co.pushed[k][i] = co.stock[i]
			co.regrants.Inc()
			granted = true
		}
	}
	co.reconciles.Inc()
	co.updateGauges()
	return granted, charged
}

// replanLocked runs one coordinated global replan: gather every
// shard's feedback into the global view (stock from the coordinator
// ledger, clock from the cluster), merge it into the replan step's
// residual or session and solve once, then install the slices
// (install). Each phase is recorded as a child of the caller's barrier
// span.
func (c *Cluster) replanLocked(sp *obs.Span) {
	gather := sp.Child("gather")
	fb, err := c.gatherFeedback()
	gather.End()
	if err != nil {
		// A shard died mid-barrier (explicit KillShard). Leave the old
		// plan standing and keep the barrier armed so the first
		// post-recovery flush replans. The killed-shard condition is
		// transient — RecoverShard brings the shard back — so it must
		// not poison the sticky cluster error that drainAndStop treats
		// as lost durable state; anything else is recorded.
		if !errors.Is(err, serve.ErrKilled) && !errors.Is(err, serve.ErrClosed) {
			c.setErr(err)
		}
		c.dirty.Store(true)
		return
	}
	gp := c.install(c.rp.Replan(c.inst(), fb, nil, sp, "merge"), sp)
	if c.logger != nil {
		obs.WithTrace(c.logger, sp).Info("coordinated replan",
			"revenue", gp.revenue, "triples", len(gp.ids), "now", c.clock.Load())
	}
}

// install is the installing half of every coordinated replan, boot's
// included: split one solve's plan by shard ("slice") and install it on
// every shard ("install") — children of sp, which may be nil. It returns
// the published plan.
func (c *Cluster) install(s planner.Solved, sp *obs.Span) *globalPlan {
	slice := sp.Child("slice")
	gp := c.slicePlan(s)
	slice.End()
	c.installGlobal(gp, sp)
	return gp
}

// gatherFeedback merges the shards' consistent feedback exports into
// one global view. Users are placed shard-local → global; the shards
// partition the user base, so merging is pure placement. Stock comes
// from the coordinator (just reconciled), Now from the cluster clock.
func (c *Cluster) gatherFeedback() (planner.Feedback, error) {
	out := planner.Feedback{
		Users: make([]model.UserFeedback, c.inst().NumUsers),
		Stock: make([]int, len(c.co.stock)),
		Now:   model.TimeStep(c.clock.Load()),
	}
	for i, r := range c.co.stock {
		out.Stock[i] = int(r)
	}
	c.engMu.RLock()
	defer c.engMu.RUnlock()
	for k, e := range c.engines {
		fb, err := e.Feedback()
		if err != nil {
			return planner.Feedback{}, fmt.Errorf("cluster: shard %d: %w", k, err)
		}
		for lu := range fb.Users {
			out.Users[globalID(k, model.UserID(lu), c.n)] = fb.Users[lu]
		}
	}
	return out, nil
}

// evaluate scores fp from scratch: an evaluator holding exactly its
// candidates, whose group partials are revenue.Revenue's terms.
func evaluate(fp *model.Plan) *revenue.Evaluator {
	ev := revenue.NewEvaluator(fp.Instance())
	fp.Each(func(id model.CandID) bool {
		ev.AddID(id)
		return true
	})
	return ev
}

// globalPlan is one coordinated solve as the cluster serves it:
// immutable once published.
type globalPlan struct {
	// ids are the chosen candidates, ascending, as CandIDs of the
	// global instance in.
	in  *model.Instance
	ids []model.CandID
	// shards[k] is shard k's slice in its own CandID space, and
	// shardRev[k] its share of revenue, the plan's expected revenue on
	// the residual it was solved for. from is the clock it plans from.
	shards   []*model.Plan
	shardRev []float64
	revenue  float64
	from     model.TimeStep

	stratOnce sync.Once
	strat     *model.Strategy
}

// strategy materializes the map-backed strategy on first use. Safe for
// concurrent callers.
func (gp *globalPlan) strategy() *model.Strategy {
	gp.stratOnce.Do(func() {
		fp := gp.in.NewPlan()
		for _, id := range gp.ids {
			fp.Add(id)
		}
		gp.strat = fp.Strategy()
	})
	return gp.strat
}

// slicePlan turns one solve's plan into the cluster's form: its
// candidates in the global CandID space, one slice per shard in that
// shard's CandID space (shard k holds the users u ≡ k mod n, and
// subInstance copies each one's candidates in order, so a global CandID
// moves by the per-user span offset c.off[u]), and the revenue split the
// same way. The plan's revenue is the CanonicalTotal of the solve's
// evaluator (or of a fresh one, for solvers that keep none); shard k's
// is the ascending-group-ID sum of its own groups' partials. A shard's
// groups are its users' (user, class) pairs in the same order, a
// subsequence of the global order, so that sum is revenue.Revenue on the
// shard's residual bit for bit.
func (c *Cluster) slicePlan(s planner.Solved) *globalPlan {
	fp, ev := s.Plan, s.Evaluator
	if ev == nil {
		ev = evaluate(fp)
	}
	g := c.inst()
	gp := &globalPlan{
		in:       g,
		ids:      g.BaseIDs(s.Base),
		shards:   make([]*model.Plan, c.n),
		shardRev: make([]float64, c.n),
		revenue:  ev.CanonicalTotal(),
		from:     model.TimeStep(c.clock.Load()),
	}
	c.engMu.RLock()
	for k, e := range c.engines {
		gp.shards[k] = e.Instance().NewPlan()
	}
	c.engMu.RUnlock()
	for _, id := range gp.ids {
		u := g.CandAt(id).U
		gp.shards[shardOf(u, c.n)].Add(id + c.off[u])
	}
	x := fp.Instance()
	for grp := int32(0); grp < int32(x.NumGroups()); grp++ {
		// An empty group's partial is an exact 0, which adds nothing.
		if r := ev.GroupPartial(grp); r != 0 {
			u := x.CandAt(x.GroupCandIDs(grp)[0]).U
			gp.shardRev[shardOf(u, c.n)] += r
		}
	}
	return gp
}

// installGlobal installs gp on every shard concurrently — each shard
// its slice, its revenue share and the plan's clock, through
// serve.Engine.InstallPlan — and only then publishes it as the cluster's
// plan: Stats shows a plan's revenue, size and replan count once every
// shard serves it. A killed shard misses the install; RecoverShard
// installs the current plan when it comes back. Each shard's "install"
// span joins sp's trace under the barrier's install child.
func (c *Cluster) installGlobal(gp *globalPlan, sp *obs.Span) {
	install := sp.Child("install")
	ctx := obs.ContextWithTraceRef(context.Background(),
		obs.TraceRef{TraceID: sp.TraceID(), ParentID: install.SpanID()})
	c.engMu.RLock()
	var wg sync.WaitGroup
	for k, e := range c.engines {
		wg.Add(1)
		go func(k int, e *serve.Engine) {
			defer wg.Done()
			if err := c.installShard(ctx, gp, k, e); err != nil &&
				!errors.Is(err, serve.ErrClosed) && !errors.Is(err, serve.ErrKilled) {
				c.setErr(err)
			}
		}(k, e)
	}
	wg.Wait()
	c.engMu.RUnlock()
	install.End()
	c.plan.Store(gp)
	c.lastReplan.Store(time.Now().UnixNano())
	c.replans.Add(1)
	c.co.replansC.Inc()
}

// installShard puts shard k's engine e on gp. An engine behind the
// plan's clock (recovered from a log that missed the last advance) is
// advanced first; the install queues behind the advance.
func (c *Cluster) installShard(ctx context.Context, gp *globalPlan, k int, e *serve.Engine) error {
	if e.Now() < gp.from {
		if err := e.SetNow(gp.from); err != nil {
			return err
		}
	}
	return e.InstallPlan(ctx, gp.shards[k], gp.shardRev[k], gp.from)
}

// Sync flushes the cluster and reports the first durability error any
// shard or the coordinator has hit.
func (c *Cluster) Sync() error {
	c.Flush()
	return c.Err()
}

// Err returns the first write-ahead-log, snapshot, or barrier failure
// the cluster has encountered (nil if none).
func (c *Cluster) Err() error {
	c.errMu.Lock()
	err := c.err
	c.errMu.Unlock()
	if err != nil {
		return err
	}
	c.engMu.RLock()
	defer c.engMu.RUnlock()
	for _, e := range c.engines {
		if err := e.Err(); err != nil {
			return err
		}
	}
	return nil
}

func (c *Cluster) setErr(err error) {
	if err == nil {
		return
	}
	c.errMu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.errMu.Unlock()
}

// Checkpoint writes a consistent snapshot of every shard and the
// coordinator ledger, compacting their logs.
func (c *Cluster) Checkpoint() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errors.New("cluster: closed")
	}
	c.engMu.RLock()
	for _, e := range c.engines {
		if err := e.Checkpoint(); err != nil {
			c.engMu.RUnlock()
			return err
		}
	}
	c.engMu.RUnlock()
	if err := c.co.snapshot(); err != nil {
		return fmt.Errorf("cluster: coordinator checkpoint: %w", err)
	}
	return nil
}

// Kill simulates kill -9 of the whole cluster process: every shard
// engine and the coordinator ledger are cut off mid-stream with no
// draining, no final snapshots, and no fsync beyond what barriers
// already forced. Recover with Open on the same directory.
func (c *Cluster) Kill() {
	c.slo.Stop()
	c.stopFlusher()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	c.engMu.RLock()
	for _, e := range c.engines {
		e.Kill()
	}
	c.engMu.RUnlock()
	if c.co.st != nil {
		c.co.st.Kill()
	}
}

// KillShard simulates kill -9 of shard k: its queue is dropped on the
// floor and its store is cut off mid-stream, exactly like
// serve.Engine.Kill. The rest of the fleet keeps serving; recover the
// victim with RecoverShard.
func (c *Cluster) KillShard(k int) error {
	if k < 0 || k >= c.n {
		return fmt.Errorf("cluster: shard %d out of range [0,%d)", k, c.n)
	}
	c.engMu.RLock()
	eng := c.engines[k]
	c.engMu.RUnlock()
	eng.Kill()
	return nil
}

// RecoverShard re-opens a killed shard from its durable directory and
// swaps it back into the router. The recovered engine replays its WAL
// — including every reservation grant the coordinator logged through
// it — so its stock view and user state are exactly the pre-crash
// flushed state. It does not plan: RecoverShard installs the shard's
// slice of the (still live) coordinator's current plan before
// returning, so the shard serves the fleet's plan again.
func (c *Cluster) RecoverShard(k int) error {
	if k < 0 || k >= c.n {
		return fmt.Errorf("cluster: shard %d out of range [0,%d)", k, c.n)
	}
	d := c.cfg.Durability
	if d == nil || d.Dir == "" {
		return errors.New("cluster: RecoverShard needs a durable cluster")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errors.New("cluster: closed")
	}
	eng, err := serve.Open(nil, shardConfig(c.cfg, k))
	if err != nil {
		return fmt.Errorf("cluster: recover shard %d: %w", k, err)
	}
	if gp := c.plan.Load(); gp != nil {
		if err := c.installShard(context.Background(), gp, k, eng); err != nil {
			eng.Close()
			return fmt.Errorf("cluster: recover shard %d: install: %w", k, err)
		}
	}
	c.engMu.Lock()
	c.engines[k] = eng
	c.engMu.Unlock()
	// The recovered view equals the last grant the shard logged; align
	// the coordinator's baseline with it so the next reconcile charges
	// only post-recovery drawdowns.
	for i := range c.co.pushed[k] {
		if v, err := eng.Stock(model.ItemID(i)); err == nil {
			c.co.pushed[k][i] = int64(v)
		}
	}
	c.co.updateGauges()
	return nil
}

// Stats returns the cluster-wide serving summary: per-shard samples
// merged with serve.MergeStats, with the cluster's own view of the
// plan substituted for the summed per-shard fields (one global plan,
// not n independent ones) and the requests its router rejected added to
// the shards' request errors.
func (c *Cluster) Stats() serve.Stats {
	st := serve.MergeStats(c.StatsSamples()...)
	st.RequestErrors += c.routeErrors.Load()
	st.Shards = c.n
	st.Now = int(c.clock.Load())
	st.Replans = c.replans.Load()
	if gp := c.plan.Load(); gp != nil {
		st.PlanRevenue = gp.revenue
		st.PlannedTriples = len(gp.ids)
	}
	return st
}

// StatsSamples returns each shard's mergeable stats sample, indexed by
// shard.
func (c *Cluster) StatsSamples() []serve.StatsSample {
	c.engMu.RLock()
	defer c.engMu.RUnlock()
	out := make([]serve.StatsSample, len(c.engines))
	for k, e := range c.engines {
		out[k] = e.StatsSample()
	}
	return out
}

// Close flushes outstanding work (one final coordinated replan if
// needed), closes every shard engine (each writes its final snapshot),
// and seals the coordinator ledger. The background flusher is retired
// first — it must not race the teardown for the barrier mutex.
func (c *Cluster) Close() {
	c.slo.Stop()
	c.stopFlusher()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.flushLocked(obs.TraceRef{})
	c.closed = true
	c.closeEngines()
	if c.co.st != nil {
		if err := c.co.snapshot(); err != nil {
			c.setErr(fmt.Errorf("cluster: final coordinator snapshot: %w", err))
		}
		if err := c.co.st.Close(); err != nil {
			c.setErr(err)
		}
	}
}
