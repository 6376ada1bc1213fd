// Package serve is the online recommendation-serving subsystem: it
// wraps a REVMAX instance and a planned strategy in a sharded,
// lock-striped user store and answers per-user Recommend lookups under
// heavy concurrency, while an adoption-feedback queue folds realized
// purchases back into the model and triggers asynchronous
// receding-horizon replanning through internal/planner.
//
// Concurrency architecture:
//
//   - The planned strategy lives in an immutable plan snapshot behind an
//     atomic.Pointer. Lookups load the pointer once and never block on a
//     replan; a replan builds a fresh plan off to the side and swaps the
//     pointer (double buffering).
//   - Mutable per-user feedback state (adopted classes, exposure times)
//     is one dense model.UserFeedback per user, lock-striped by user-ID
//     hash across next-pow2(GOMAXPROCS) shard RWMutexes. Lookups take
//     one shard RLock; batch lookups group users by shard and amortize
//     one RLock per shard over the whole group.
//   - Item stock is a slice of atomics: decremented by the single
//     feedback goroutine, read lock-free by every lookup.
//   - Feedback events flow through a buffered channel into one
//     background goroutine, which applies them to the shards and replans
//     every ReplanEvery adoptions. Flush provides a synchronous barrier
//     for tests and snapshots.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/solver"
	"repro/internal/store"
)

// Config tunes an Engine. The zero value of every field selects a sane
// default: an empty Algorithm plans with solver.DefaultAlgorithm
// (G-Greedy), so serving configs are fully declarative — a daemon can
// be pointed at any registered algorithm by name alone.
type Config struct {
	// Algorithm names the registered solver used for planning and
	// replanning ("g-greedy", "rl-greedy", ...; solver.List()
	// enumerates, legacy aliases like "GG" resolve). Empty falls back
	// to Solver.Algorithm, then to solver.DefaultAlgorithm. Only a
	// servable algorithm, one that returns a candidate-indexed plan
	// within every constraint, is accepted (solver.CheckServable):
	// construction rejects top-rating and local-search. Ignored when
	// InstallOnly is set.
	Algorithm string
	// Solver carries the named algorithm's options (permutations, seed,
	// workers, cuts). When both name fields are set, Algorithm wins
	// over Solver.Algorithm.
	Solver solver.Options
	// InstallOnly makes the engine a server of plans computed elsewhere:
	// it never plans. There is no boot solve (the engine starts on an
	// empty plan), adoptions, ReplanEvery, SetNow, SetStock, ScalePrice
	// and Flush trigger no replan, and recovery skips its boot replan
	// (the snapshotted plan serves until the next install). Plans arrive
	// through InstallPlan only. A cluster runs its shard engines this
	// way, installing each shard's slice of the coordinator's global
	// plan. The planning fields (Algorithm, Solver, WarmStart) are
	// ignored; Incremental is rejected.
	InstallOnly bool
	// WarmStart seeds each replan with the previous plan, whose
	// still-feasible triples carry over instead of being re-derived,
	// cutting replan latency when feedback batches invalidate only a
	// small part of the plan. The residual path seeds the solver through
	// Options.Warm; with Incremental the session seeds itself with its
	// previous plan (planner.Replanner). Warm-started plans generally
	// differ from cold ones — leave it off when byte-identity with
	// open-loop solves matters (the scenario goldens do). Ignored when
	// InstallOnly is set.
	WarmStart bool
	// Incremental replans through a persistent core.Session instead of
	// rebuilding the residual instance from a full feedback snapshot:
	// the solver's heap, plan, and evaluator survive across replans, the
	// loop journals only the since-last-replan deltas (events, stock
	// overrides, price rescales), and each replan recomputes upper
	// bounds for exactly the candidates those deltas invalidated.
	// Output is byte-identical to the non-incremental path — cold
	// solves without WarmStart, warm-started solves with it — so the
	// switch is a pure latency/throughput trade. Requires the registry's
	// "g-greedy" (solver.CheckSession); construction fails otherwise,
	// and so does combining it with InstallOnly.
	Incremental bool
	// Shards overrides the shard count (rounded up to a power of two).
	// 0 means next pow2 ≥ GOMAXPROCS.
	Shards int
	// ReplanEvery replans after this many adoptions (≤ 0 means 32).
	ReplanEvery int
	// QueueDepth is the feedback channel's buffer (≤ 0 means 4096).
	QueueDepth int
	// Durability, when non-nil with a Dir, gives the engine a durable
	// write-ahead log and snapshot store (see internal/store). Durable
	// engines are created with Open, which recovers existing state from
	// the directory; NewEngine rejects a durable config. nil keeps the
	// engine purely in-memory with byte-identical behavior.
	Durability *Durability
	// Logger, when non-nil, receives structured operational records
	// (slow requests, replan summaries, SLO breaches) with trace_id
	// attributes correlating them to /debug/traces. nil disables logging
	// at the cost of one pointer check per emission site.
	Logger *slog.Logger
	// SlowThreshold, when > 0 with a Logger, logs latency-sampled
	// requests that exceed it. Only sampled requests are candidates, so
	// the unsampled fast path stays untouched.
	SlowThreshold time.Duration
	// SLO tunes the in-process SLO watchdog; the zero value enables it
	// with defaults (see SLOConfig).
	SLO SLOConfig
	// TraceOrigin, when nonzero, is stamped into the top 16 bits of
	// every trace/span ID this engine's tracer mints. A cluster gives
	// each shard a distinct origin so merged traces never collide.
	TraceOrigin uint16

	// obsReg/obsTracer carry a pre-built observability registry and
	// tracer into engine construction — Open creates them before the
	// store so WAL metrics land on the same registry the engine exposes.
	// nil (the normal case for NewEngine) allocates fresh ones.
	obsReg    *obs.Registry
	obsTracer *obs.Tracer
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.ReplanEvery <= 0 {
		out.ReplanEvery = 32
	}
	if out.QueueDepth <= 0 {
		out.QueueDepth = 4096
	}
	out.SLO = out.SLO.WithDefaults()
	return out
}

// planSetup builds the engine's replan step (planner.NewReplanner) on
// the engine's registry, allocating that here when the caller brought
// none: an unknown name or a missing required option fails engine
// construction with solver's actionable error instead of failing a
// replan. An install-only engine never solves, so it has no replanner.
func (c *Config) planSetup() (*planner.Replanner, error) {
	if c.InstallOnly {
		if c.Incremental {
			return nil, errors.New("serve: Incremental is incompatible with InstallOnly (an install-only engine never solves)")
		}
		return nil, nil
	}
	if c.obsReg == nil {
		c.obsReg = obs.NewRegistry()
	}
	rp, err := planner.NewReplanner(planner.ReplanConfig{
		Algorithm: c.Algorithm, Solver: c.Solver, WarmStart: c.WarmStart, Incremental: c.Incremental,
	}, c.obsReg)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return rp, nil
}

// ErrClosed is returned by mutating calls (Feed, SetStock, ScalePrice)
// on an engine that has been closed or killed; errors.Is distinguishes
// this expected lifecycle condition from real failures.
var ErrClosed = errors.New("serve: engine closed")

// ErrKilled is returned by state-export calls (Feedback, Snapshot) on a
// killed engine: a simulated kill -9 drops the in-memory state on the
// floor, so there is nothing consistent left to export. Callers
// coordinating across engines (internal/cluster) treat it as transient
// — recovery brings the engine back.
var ErrKilled = errors.New("serve: engine killed")

// Event is one piece of adoption feedback: user U was shown item I at
// time T and either adopted it or not. Non-adoption events still matter
// — they accrue saturation memory, exactly like Planner.Observe's
// issued-but-not-adopted recommendations.
type Event struct {
	User    model.UserID   `json:"user"`
	Item    model.ItemID   `json:"item"`
	T       model.TimeStep `json:"t"`
	Adopted bool           `json:"adopted"`
}

// Recommendation is one served recommendation with its conditional
// adoption probability given every observation applied so far.
type Recommendation struct {
	Item  model.ItemID `json:"item"`
	Price float64      `json:"price"`
	Prob  float64      `json:"prob"`
}

// feedbackMsg is one message on the engine's feedback queue: a mutation
// record to log, apply and journal (rec.Type nonzero: an event, stock
// override, price rescale or clock advance), or — with a zero rec.Type —
// a control message: a flush barrier, a snapshot or feedback capture
// request (served by the loop so the captured state is consistent — no
// event is half-applied across stock and shards), or a plan install.
type feedbackMsg struct {
	rec     store.Record
	trace   obs.TraceRef          // with a RecAdvance: trace the forced replan joins
	flush   chan struct{}         // non-nil: barrier; closed once covered by a replan
	snap    chan snapState        // non-nil: capture store state between applies
	fb      chan planner.Feedback // non-nil: export a consistent feedback view
	install *installOp            // non-nil: publish a plan computed elsewhere
}

// installOp is one InstallPlan call, carried to the feedback loop so the
// index build reads prices no rescale is writing and the plan-swap
// marker lands in log order. done receives the outcome.
type installOp struct {
	fp      *model.Plan
	revenue float64
	from    model.TimeStep
	span    *obs.Span
	done    chan error
}

// Engine is the online serving engine. All exported methods are safe for
// concurrent use.
type Engine struct {
	in  *model.Instance
	cfg Config
	// rp is the replan step (planSetup); installOnly
	// (Config.InstallOnly) means the engine never solves at all, and rp
	// is nil. rp belongs to the replan goroutine and to single-threaded
	// boot paths (at most one replan runs at a time; the loop only asks
	// rp.FullView after observing the previous replan's completion
	// channel, which orders the accesses).
	rp          *planner.Replanner
	installOnly bool
	// journal is the loop-owned list of the mutation records applied
	// since the last replan capture, kept when rp.Journals(); the loop
	// hands it to the replan wholesale.
	journal []store.Record

	// users is the per-user feedback store, indexed by UserID; user u is
	// guarded by shards[shardIndex(u, mask)]. The feedback loop is its only
	// writer, so the loop itself reads it without locking.
	users  []model.UserFeedback
	shards []shard
	mask   uint32

	stock []atomic.Int64

	plan atomic.Pointer[plan]
	now  atomic.Int64

	feedback chan feedbackMsg
	wg       sync.WaitGroup
	// closeMu serializes producers against Close: senders hold the read
	// side, Close takes the write side before closing the channel.
	closeMu sync.RWMutex
	closed  atomic.Bool
	// killed marks a simulated crash (Kill): the loop discards queued
	// messages instead of draining them, like a process that died with
	// events still in flight.
	killed atomic.Bool

	// st, when non-nil, is the durable store: the loop appends every
	// state mutation to the write-ahead log before applying it.
	st     *store.Store
	walMu  sync.Mutex
	walErr error // first WAL failure; surfaced by Err and Sync

	snapStop chan struct{} // background snapshotter lifecycle
	snapWG   sync.WaitGroup
	snapOnce sync.Once

	adoptions atomic.Int64
	exposures atomic.Int64
	replans   atomic.Int64
	revision  atomic.Int64

	met *meter
	// logger (Config.Logger) may be nil; every emission site guards on
	// it so the logging-off fast path is one pointer compare.
	logger *slog.Logger
	// slo is the in-process SLO watchdog, nil when Config.SLO.Disable.
	slo *obs.SLOWatchdog
}

// NewEngine plans an initial strategy for in with the configured
// algorithm and starts the feedback loop. The instance must be finished
// (FinishCandidates) and valid; the engine takes ownership of it and of
// all strategies the algorithm returns.
func NewEngine(in *model.Instance, cfg Config) (*Engine, error) {
	if cfg.Durability != nil && cfg.Durability.Dir != "" {
		return nil, errors.New("serve: durable engines must be created with Open (NewEngine never recovers existing state)")
	}
	e, err := newUnstartedEngine(in, cfg)
	if err != nil {
		return nil, err
	}
	e.start()
	return e, nil
}

// newUnstartedEngine is the shared cold-boot construction — resolve
// the algorithm, validate the instance, allocate the shell, plan and
// install the initial strategy — without starting the feedback loop,
// so the durable path can attach its store and write the base snapshot
// first. Both NewEngine and Open build on it; boot invariants live in
// exactly one place.
func newUnstartedEngine(in *model.Instance, cfg Config) (*Engine, error) {
	rp, err := cfg.planSetup()
	if err != nil {
		return nil, err
	}
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	e := newEngineShell(in, cfg, rp)
	if e.installOnly {
		e.installPlan(buildPlanFlat(in, in.NewPlan(), 1, 0))
		return e, nil
	}
	span := e.met.tracer.Start("plan")
	p := planFrom(in, e.rp.Boot(in, span), 1, span)
	span.SetFloat("revenue", p.revenue)
	span.End()
	e.installPlan(p)
	return e, nil
}

// planFrom indexes one solve's plan, already in in's CandID space, for
// serving, as the "index" child of span, with the revenue the solve
// carried (CanonicalRevenue on the instance it solved, bit-identical to
// revenue.Revenue there).
func planFrom(in *model.Instance, s planner.Solved, from model.TimeStep, span *obs.Span) *plan {
	isp := span.Child("index")
	defer isp.End()
	return buildPlanFlat(in, s.Base, from, s.CanonicalRevenue)
}

// newEngineShell allocates an engine with store state but no plan and no
// running feedback loop; NewEngine and Restore finish the setup. rp is
// cfg's replan step (planSetup).
func newEngineShell(in *model.Instance, cfg Config, rp *planner.Replanner) *Engine {
	cfg = cfg.withDefaults()
	n := shardCount(cfg.Shards)
	e := &Engine{
		in:          in,
		cfg:         cfg,
		rp:          rp,
		installOnly: cfg.InstallOnly,
		users:       make([]model.UserFeedback, in.NumUsers),
		shards:      make([]shard, n),
		mask:        uint32(n - 1),
		stock:       make([]atomic.Int64, in.NumItems()),
		feedback:    make(chan feedbackMsg, cfg.QueueDepth),
		met:         newMeter(cfg.obsReg, cfg.obsTracer),
		logger:      cfg.Logger,
	}
	if cfg.TraceOrigin != 0 {
		e.met.tracer.SetOrigin(cfg.TraceOrigin)
	}
	for i := 0; i < in.NumItems(); i++ {
		e.stock[i].Store(int64(in.Capacity(model.ItemID(i))))
	}
	e.now.Store(1)
	// Scrape-time gauge/counter functions bind to this engine; when a
	// registry is reused across shells (recovery retries), the last shell
	// built — the one that actually serves — wins the binding.
	registerEngineMetrics(e)
	e.slo = newEngineSLO(e)
	return e
}

// installPlan publishes p as the live plan under the next revision and,
// once the engine has a store, logs the plan-swap marker (RecPlanSwap).
func (e *Engine) installPlan(p *plan) {
	p.revision = e.revision.Add(1)
	p.installedAt = time.Now()
	e.plan.Store(p)
	e.walAppend(store.Record{Type: store.RecPlanSwap, Revision: p.revision})
}

// start launches the feedback loop and the SLO watchdog ticker.
func (e *Engine) start() {
	e.wg.Add(1)
	go e.loop()
	e.slo.Start(e.cfg.SLO.Interval)
}

// Instance returns the engine's (full-horizon) instance. Read-only.
func (e *Engine) Instance() *model.Instance { return e.in }

// Now returns the engine's current time step.
func (e *Engine) Now() model.TimeStep { return model.TimeStep(e.now.Load()) }

// SetNow advances the engine clock to t (monotonically, within [1, T])
// and requests an asynchronous replan, since the residual horizon
// changed (an InstallOnly engine only logs the advance). Past feedback
// is unaffected.
func (e *Engine) SetNow(t model.TimeStep) error {
	return e.SetNowCtx(context.Background(), t)
}

// SetNowCtx is SetNow carrying trace context: when ctx holds a span or
// TraceRef (an X-Trace-Id'd /v1/advance), the replan this advance
// triggers joins that trace as a remote span.
func (e *Engine) SetNowCtx(ctx context.Context, t model.TimeStep) error {
	rec := store.Record{Type: store.RecAdvance, T: int32(t)}
	if err := e.check(rec); err != nil {
		return err
	}
	for {
		cur := e.now.Load()
		if int64(t) < cur {
			return fmt.Errorf("serve: clock may not move backwards (%d < %d)", t, cur)
		}
		if e.now.CompareAndSwap(cur, int64(t)) {
			break
		}
	}
	// A closed engine has no loop left to replan; the clock has moved.
	_ = e.enqueue(feedbackMsg{rec: rec, trace: obs.TraceRefFromContext(ctx)})
	return nil
}

// Recommend returns the planned recommendations for user u at time t,
// each with its conditional adoption probability given all applied
// feedback: zero if the user already adopted from the item's class or
// the item is out of stock, and saturation-discounted by the user's
// realized exposures. The slice is freshly allocated; order is by item
// ID. The lookup is O(log |plan_u| + k).
func (e *Engine) Recommend(u model.UserID, t model.TimeStep) ([]Recommendation, error) {
	return e.RecommendCtx(context.Background(), u, t)
}

// RecommendCtx is Recommend carrying trace context: a span or TraceRef
// in ctx (an X-Trace-Id'd request) always gets a span; otherwise the
// request is head-sampled 1-in-(traceSampleMask+1). The unsampled path
// never touches the tracer and stays zero-alloc.
func (e *Engine) RecommendCtx(ctx context.Context, u model.UserID, t model.TimeStep) ([]Recommendation, error) {
	// Latency is sampled 1-in-(mask+1): the sampling decision rides the
	// existing counter load, so the untimed fast path adds no clock reads
	// — what keeps instrumented overhead inside the ≤3% budget. The trace
	// sampling decision rides the same load.
	m := e.met
	n := m.recommends.Value()
	timed := n&latencySampleMask == 0
	var start time.Time
	if timed {
		start = time.Now()
	}
	sp := e.requestSpan(ctx, "recommend", n)
	out, err := e.recommendOne(e.plan.Load(), u, t)
	if err == nil {
		m.recommends.Inc()
		if timed {
			d := time.Since(start)
			m.lat.Observe(d.Seconds())
			if e.logger != nil && e.cfg.SlowThreshold > 0 && d >= e.cfg.SlowThreshold {
				e.logSlow("recommend", d, sp, int64(u), int64(t))
			}
		}
	} else {
		m.errors.Inc()
	}
	if sp != nil {
		sp.SetInt("user", int64(u))
		sp.SetInt("t", int64(t))
		if err != nil {
			sp.SetStr("error", err.Error())
		}
		sp.End()
	}
	return out, err
}

// requestSpan opens a span for one request: always when ctx carries
// trace identity (a parent span on this goroutine, or a TraceRef from
// an X-Trace-Id header or a fan-out), else head-sampled using the
// counter value n the caller already loaded. Returns nil — and touches
// nothing — on the unsampled path.
func (e *Engine) requestSpan(ctx context.Context, name string, n int64) *obs.Span {
	if parent := obs.SpanFromContext(ctx); parent != nil {
		return parent.Child(name)
	}
	if ref := obs.TraceRefFromContext(ctx); ref.TraceID != 0 {
		return e.met.tracer.StartRemote(name, ref.TraceID, ref.ParentID)
	}
	if n&traceSampleMask == 0 {
		return e.met.tracer.Start(name)
	}
	return nil
}

// logSlow emits one slow-request record; callers pre-check logger,
// threshold, and duration so this stays off the request fast path.
func (e *Engine) logSlow(op string, d time.Duration, sp *obs.Span, user, t int64) {
	obs.WithTrace(e.logger, sp).Warn("slow request",
		"op", op, "user", user, "t", t, "duration_ms", float64(d.Microseconds())/1e3)
}

func (e *Engine) validate(u model.UserID, t model.TimeStep) error {
	if int(u) < 0 || int(u) >= e.in.NumUsers {
		return fmt.Errorf("serve: unknown user %d", u)
	}
	return e.checkStep(t)
}

func (e *Engine) checkStep(t model.TimeStep) error {
	if t < 1 || int(t) > e.in.T {
		return fmt.Errorf("serve: time step %d outside horizon [1,%d]", t, e.in.T)
	}
	return nil
}

func (e *Engine) checkItem(i model.ItemID) error {
	if int(i) < 0 || int(i) >= e.in.NumItems() {
		return fmt.Errorf("serve: unknown item %d", i)
	}
	return nil
}

func (e *Engine) recommendOne(p *plan, u model.UserID, t model.TimeStep) ([]Recommendation, error) {
	if err := e.validate(u, t); err != nil {
		return nil, err
	}
	entries := p.entriesAt(u, t)
	if len(entries) == 0 {
		return nil, nil
	}
	sh := &e.shards[shardIndex(u, e.mask)]
	sh.mu.RLock()
	out := e.fill(u, t, entries)
	sh.mu.RUnlock()
	return out, nil
}

// fill computes the conditional probabilities for entries under u's
// shard read lock (already held by the caller).
func (e *Engine) fill(u model.UserID, t model.TimeStep, entries []planEntry) []Recommendation {
	f := &e.users[u]
	out := make([]Recommendation, 0, len(entries))
	for _, pe := range entries {
		rec := Recommendation{Item: pe.item, Price: pe.price, Prob: pe.q}
		switch {
		case f.HasAdopted(pe.class):
			rec.Prob = 0
		case e.stock[pe.item].Load() <= 0:
			rec.Prob = 0
		default:
			rec.Prob = model.Discount(rec.Prob, pe.beta, model.SaturationMemory(f.Exposures(pe.class), t))
		}
		out = append(out, rec)
	}
	return out
}

// RecommendBatch serves many users at one time step, amortizing lock
// acquisition: users are grouped by shard and each shard's RLock is
// taken exactly once for its whole group. Results align with the input
// order; a nil slice means the user has no planned recommendations at t.
func (e *Engine) RecommendBatch(users []model.UserID, t model.TimeStep) ([][]Recommendation, error) {
	return e.RecommendBatchCtx(context.Background(), users, t)
}

// RecommendBatchCtx is RecommendBatch carrying trace context, with the
// same span policy as RecommendCtx: context-carried traces always span,
// bare calls are head-sampled.
func (e *Engine) RecommendBatchCtx(ctx context.Context, users []model.UserID, t model.TimeStep) ([][]Recommendation, error) {
	start := time.Now()
	sp := e.requestSpan(ctx, "recommend-batch", e.met.batchUsers.Value())
	fail := func(err error) ([][]Recommendation, error) {
		e.met.errors.Inc()
		if sp != nil {
			sp.SetStr("error", err.Error())
			sp.End()
		}
		return nil, err
	}
	if err := e.checkStep(t); err != nil {
		return fail(err)
	}
	p := e.plan.Load()
	out := make([][]Recommendation, len(users))
	// Group input positions by shard; small fixed-size bucket slices keep
	// this allocation-light for the common batch sizes.
	groups := make([][]int, len(e.shards))
	for pos, u := range users {
		if int(u) < 0 || int(u) >= e.in.NumUsers {
			return fail(fmt.Errorf("serve: unknown user %d", u))
		}
		si := shardIndex(u, e.mask)
		groups[si] = append(groups[si], pos)
	}
	for si, gs := range groups {
		if len(gs) == 0 {
			continue
		}
		sh := &e.shards[si]
		sh.mu.RLock()
		for _, pos := range gs {
			u := users[pos]
			if entries := p.entriesAt(u, t); len(entries) > 0 {
				out[pos] = e.fill(u, t, entries)
			}
		}
		sh.mu.RUnlock()
	}
	e.met.batchUsers.Add(int64(len(users)))
	d := time.Since(start)
	e.met.blat.Observe(d.Seconds())
	if e.logger != nil && e.cfg.SlowThreshold > 0 && d >= e.cfg.SlowThreshold {
		obs.WithTrace(e.logger, sp).Warn("slow request",
			"op", "recommend-batch", "users", len(users), "t", int64(t),
			"duration_ms", float64(d.Microseconds())/1e3)
	}
	if sp != nil {
		sp.SetInt("users", int64(len(users)))
		sp.SetInt("t", int64(t))
		sp.End()
	}
	return out, nil
}

// Feed enqueues one feedback event. It blocks only when the queue is
// full; it returns an error if the engine is closed or the event is out
// of range.
func (e *Engine) Feed(ev Event) error {
	return e.FeedCtx(context.Background(), ev)
}

// FeedCtx is Feed carrying trace context; the span covers validation
// and the enqueue (the asynchronous apply is traced by the replan it
// eventually triggers).
func (e *Engine) FeedCtx(ctx context.Context, ev Event) error {
	sp := e.requestSpan(ctx, "feed", e.met.feeds.Value())
	err := e.feed(ev)
	if err != nil && !errors.Is(err, ErrClosed) {
		e.met.errors.Inc()
	}
	if sp != nil {
		sp.SetInt("user", int64(ev.User))
		sp.SetInt("item", int64(ev.Item))
		if err != nil {
			sp.SetStr("error", err.Error())
		}
		sp.End()
	}
	return err
}

func (e *Engine) feed(ev Event) error {
	rec := store.Record{Type: store.RecEvent, User: int32(ev.User), Item: int32(ev.Item), T: int32(ev.T), Adopted: ev.Adopted}
	if err := e.check(rec); err != nil {
		return err
	}
	if err := e.enqueue(feedbackMsg{rec: rec}); err != nil {
		return err
	}
	e.met.feeds.Inc()
	return nil
}

// enqueue hands msg to the feedback loop, in order with everything
// queued before it, or returns ErrClosed. The send blocks only while the
// queue is full — and the loop drains continuously even during a replan,
// so the wait is bounded by apply time, not plan time.
func (e *Engine) enqueue(msg feedbackMsg) error {
	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	if e.closed.Load() {
		return ErrClosed
	}
	e.feedback <- msg
	return nil
}

// maxPriceFactor bounds one price rescale either way (factor within
// [1/maxPriceFactor, maxPriceFactor]), so a single rescale cannot take a
// finite positive price to +Inf or to zero.
const maxPriceFactor = 1e6

// check is the one range check on a mutation record, run by the
// producers before they enqueue it and by recovery before it applies a
// replayed one: replay refuses what live traffic would. Producers
// normalise first (SetStock clamps n < 0, ScalePrice from < 1).
func (e *Engine) check(rec store.Record) error {
	switch rec.Type {
	case store.RecEvent:
		if err := e.validate(model.UserID(rec.User), model.TimeStep(rec.T)); err != nil {
			return err
		}
		return e.checkItem(model.ItemID(rec.Item))
	case store.RecSetStock:
		if err := e.checkItem(model.ItemID(rec.Item)); err != nil {
			return err
		}
		if rec.Stock < 0 {
			return fmt.Errorf("serve: stock %d out of range (want >= 0)", rec.Stock)
		}
	case store.RecAdvance:
		return e.checkStep(model.TimeStep(rec.T))
	case store.RecScalePrice:
		if err := e.checkItem(model.ItemID(rec.Item)); err != nil {
			return err
		}
		if err := e.checkStep(model.TimeStep(rec.T)); err != nil {
			return err
		}
		if f := rec.Factor; f <= 0 || math.IsInf(f, 0) || math.IsNaN(f) {
			return fmt.Errorf("serve: price factor %v out of range (want finite > 0)", f)
		} else if f < 1/maxPriceFactor || f > maxPriceFactor {
			return fmt.Errorf("serve: price factor %v out of range (want within [%g, %g])", f, 1/maxPriceFactor, maxPriceFactor)
		}
	case store.RecPlanSwap: // a marker, with nothing to range-check
	default:
		return fmt.Errorf("serve: record of unknown type %d", rec.Type)
	}
	return nil
}

// Flush blocks until every event enqueued before the call has been
// applied and — if any of them were adoptions not yet covered by a
// replan — a replan reflecting them has completed. It is the
// synchronization point for deterministic tests and consistent
// snapshots.
func (e *Engine) Flush() {
	done := make(chan struct{})
	if err := e.enqueue(feedbackMsg{flush: done}); err != nil {
		// Close is draining the queue; wait for the loop to finish so the
		// "everything enqueued before Flush is applied" contract holds.
		e.wg.Wait()
		return
	}
	<-done
}

// Stock returns item i's remaining stock as last applied by the
// feedback loop (lock-free read of the serving-path atomic).
func (e *Engine) Stock(i model.ItemID) (int, error) {
	if err := e.checkItem(i); err != nil {
		return 0, err
	}
	return int(e.stock[i].Load()), nil
}

// SetStock overrides item i's remaining stock to n — an exogenous
// inventory event (mid-horizon shock, restock) rather than adoption
// feedback. The override is applied by the feedback loop in order with
// queued events and forces a replan, since the residual problem
// changed; call Flush to wait for both. Negative n clamps to zero.
func (e *Engine) SetStock(i model.ItemID, n int) error {
	rec := store.Record{Type: store.RecSetStock, Item: int32(i), Stock: int64(max(n, 0))}
	if err := e.check(rec); err != nil {
		return err
	}
	return e.enqueue(feedbackMsg{rec: rec})
}

// ScalePrice multiplies item i's price by factor for every step in
// [from, T] — an exogenous repricing event (competitor undercut,
// promotion, price war). Like SetStock it is applied by the feedback
// loop in order with queued events and forces a replan; call Flush to
// wait for both. Already-served recommendations are unaffected (their
// prices were captured in the plan); the next installed plan quotes the
// new prices. from < 1 is treated as 1; factor must be finite and within
// a factor of 10^6 of 1.
func (e *Engine) ScalePrice(i model.ItemID, from model.TimeStep, factor float64) error {
	rec := store.Record{Type: store.RecScalePrice, Item: int32(i), T: int32(max(from, 1)), Factor: factor}
	if err := e.check(rec); err != nil {
		return err
	}
	return e.enqueue(feedbackMsg{rec: rec})
}

// Sync blocks until every previously enqueued event is applied and —
// for durable engines — the write-ahead log is forced to stable
// storage, then reports the first durability error the engine has hit.
// It is the "everything acknowledged so far survives kill -9" barrier.
func (e *Engine) Sync() error {
	e.Flush()
	if e.st != nil {
		if err := e.st.Sync(); err != nil && !errors.Is(err, store.ErrClosed) {
			e.setWALErr(err)
		}
	}
	return e.Err()
}

// Err returns the first write-ahead-log or snapshot failure the engine
// has encountered (nil if none), including failures of the store's
// background sync ticker that no engine call was around to observe. A
// durable engine keeps serving after a WAL failure — availability over
// durability — but Sync and Err make the degradation observable so
// operators can alarm on it.
func (e *Engine) Err() error {
	e.walMu.Lock()
	err := e.walErr
	e.walMu.Unlock()
	if err == nil && e.st != nil {
		err = e.st.Err()
	}
	return err
}

func (e *Engine) setWALErr(err error) {
	e.walMu.Lock()
	if e.walErr == nil {
		e.walErr = err
	}
	e.walMu.Unlock()
}

// walAppend logs one record ahead of its application. Store errors are
// sticky (Err) rather than fatal: the engine keeps serving in-memory.
func (e *Engine) walAppend(rec store.Record) {
	if e.st == nil {
		return
	}
	if _, err := e.st.Append(rec); err != nil && !errors.Is(err, store.ErrClosed) {
		e.setWALErr(err)
	}
}

// walSync is the group-commit point: the loop calls it before releasing
// flush barriers, so Flush ⇒ durable under the batch fsync policy.
func (e *Engine) walSync() {
	if e.st == nil {
		return
	}
	if err := e.st.Sync(); err != nil && !errors.Is(err, store.ErrClosed) {
		e.setWALErr(err)
	}
}

// Close flushes outstanding feedback, stops the background loop, and —
// for durable engines — writes a final snapshot, compacts the log, and
// seals the store, so the next Open recovers warm without replay. The
// engine still serves lookups afterwards, but Feed returns an error.
func (e *Engine) Close() {
	e.slo.Stop()
	e.stopSnapshotter()
	e.closeMu.Lock()
	if !e.closed.CompareAndSwap(false, true) {
		e.closeMu.Unlock()
		return
	}
	close(e.feedback)
	e.closeMu.Unlock()
	e.wg.Wait()
	if e.st != nil && !e.killed.Load() {
		if err := e.writeStoreSnapshot(e.captureState()); err != nil && !errors.Is(err, store.ErrClosed) {
			e.setWALErr(err)
		}
		if err := e.st.Close(); err != nil {
			e.setWALErr(err)
		}
	}
}

// Kill simulates dying by kill -9, for crash testing: queued-but-
// unapplied events are discarded, no final replan or snapshot happens,
// and the store drops its user-space buffers exactly like a real
// SIGKILL would — records WAL-synced before the kill survive, everything
// later is lost. The engine is unusable afterwards; recover with Open.
func (e *Engine) Kill() {
	e.slo.Stop()
	e.stopSnapshotter()
	e.killed.Store(true)
	e.closeMu.Lock()
	if !e.closed.CompareAndSwap(false, true) {
		e.closeMu.Unlock()
		return
	}
	close(e.feedback)
	e.closeMu.Unlock()
	e.wg.Wait()
	if e.st != nil {
		e.st.Kill()
	}
}

func (e *Engine) stopSnapshotter() {
	e.snapOnce.Do(func() {
		if e.snapStop != nil {
			close(e.snapStop)
			e.snapWG.Wait()
		}
	})
}

// loop is the single consumer of the feedback queue. It applies events
// inline — cheap map/atomic updates — and offloads replanning to a side
// goroutine so ingestion never stalls behind the planner (a replan is
// seconds at scale, an apply is microseconds). At most one replan runs
// at a time; triggers arriving mid-replan coalesce into the next run,
// which collects fresh state when it starts, so no trigger is ever
// lost. A Flush barrier completes once every event enqueued before it
// has been applied and a replan covering them has finished.
func (e *Engine) loop() {
	defer e.wg.Done()
	var (
		dirty    int             // adoptions not yet covered by a started replan
		force    bool            // replan requested (stock, price or clock change)
		inFlight chan struct{}   // closed when the running replan finishes
		waiters  []chan struct{} // Flush barriers awaiting coverage
		// pendingPrice holds price rescales that arrived while a replan
		// was reading the instance off-thread: applying them immediately
		// would race the replan's price reads. They commute with events
		// (events never read prices), so deferring them — and their WAL
		// records, which must mirror application order — preserves both
		// in-memory state and replay determinism.
		pendingPrice []store.Record
		// waitStart stamps the first uncovered replan trigger, feeding the
		// replan trace's queue-wait child span (tracing only).
		waitStart time.Time
		// pendingTrace is the trace the next replan should join — set by a
		// clock advance that carried trace context (a traced /v1/advance)
		// and consumed by the next started replan.
		pendingTrace obs.TraceRef
	)
	trigger := func() {
		if waitStart.IsZero() && e.met.tracer.Enabled() {
			waitStart = time.Now()
		}
	}
	// mutate logs one mutation record ahead of applying it and journals it
	// for the incremental session: the same record, in the same order, in
	// all three places.
	mutate := func(rec store.Record) {
		e.walAppend(rec)
		adopted, forced := e.applyRecord(rec)
		if e.rp.Journals() {
			e.journal = append(e.journal, rec)
		}
		if adopted {
			dirty++
		}
		force = force || forced
		if adopted || forced {
			trigger()
		}
	}
	applyPrices := func() {
		for _, rec := range pendingPrice {
			mutate(rec)
		}
		pendingPrice = nil
	}
	// capture freezes the state the next replan conditions on. On the
	// incremental path with a live session, that is just the delta
	// journal plus the clock — the full-feedback copy (stock walk + the
	// whole user store) is skipped entirely. Before
	// the session exists (first replan, recovery), the full view
	// bootstraps it and subsumes whatever the journal holds.
	capture := func(span *obs.Span) (planner.Feedback, []store.Record) {
		if !e.rp.FullView() {
			delta := e.journal
			e.journal = nil
			return planner.Feedback{Now: e.Now()}, delta
		}
		csp := span.Child("snapshot")
		fb := e.collectFeedback()
		csp.End()
		e.journal = nil // subsumed by the full view
		return fb, nil
	}
	start := func() {
		dirty, force = 0, false
		// StartRemote joins the pending trace when one is set and opens a
		// fresh local trace otherwise (zero TraceID falls back to Start).
		span := e.met.tracer.StartRemote("replan", pendingTrace.TraceID, pendingTrace.ParentID)
		pendingTrace = obs.TraceRef{}
		if !waitStart.IsZero() {
			span.ChildSpan("queue-wait", waitStart, time.Since(waitStart))
			waitStart = time.Time{}
		}
		// Collect the feedback view here, on the loop goroutine, so no
		// apply can interleave between the stock reads and the shard walk
		// — the replan really does work on a frozen, consistent view.
		// The copy is cheap next to planning, which runs off-loop.
		fb, delta := capture(span)
		done := make(chan struct{})
		inFlight = done
		go func() {
			e.replanWith(fb, delta, span)
			close(done)
		}()
	}
	progress := func() {
		// An install-only engine never replans: its triggers cover nothing,
		// so barriers only wait for the applies queued before them.
		if e.installOnly {
			dirty, force = 0, false
		}
		if inFlight == nil && (force || dirty >= e.cfg.ReplanEvery || (dirty > 0 && len(waiters) > 0)) {
			start()
		}
		if inFlight == nil && dirty == 0 && len(waiters) > 0 {
			// Everything enqueued before these barriers is applied and
			// covered; make it durable before letting the callers proceed.
			e.walSync()
			for _, w := range waiters {
				close(w)
			}
			waiters = nil
		}
	}
	for {
		select {
		case msg, ok := <-e.feedback:
			if !ok {
				if e.killed.Load() {
					// Crash: drop state on the floor, only unblock callers.
					for _, w := range waiters {
						close(w)
					}
					return
				}
				// Closed: finish the running replan, fold in any uncovered
				// tail synchronously, and release remaining barriers.
				if inFlight != nil {
					<-inFlight
				}
				applyPrices()
				if !e.installOnly && (dirty > 0 || force) {
					start()
					<-inFlight
				}
				e.walSync()
				for _, w := range waiters {
					close(w)
				}
				return
			}
			if e.killed.Load() {
				// Crash mode: discard the message like a dead process would,
				// but never strand a caller blocked on a reply.
				if msg.flush != nil {
					close(msg.flush)
				}
				if msg.snap != nil {
					msg.snap <- snapState{}
				}
				if msg.fb != nil {
					msg.fb <- planner.Feedback{}
				}
				if msg.install != nil {
					msg.install.span.Drop()
					msg.install.done <- ErrKilled
				}
				continue
			}
			switch {
			case msg.flush != nil:
				waiters = append(waiters, msg.flush)
			case msg.snap != nil:
				msg.snap <- e.captureState()
			case msg.fb != nil:
				msg.fb <- e.collectFeedback()
			case msg.install != nil:
				e.install(msg.install)
			case msg.rec.Type == store.RecScalePrice:
				pendingPrice = append(pendingPrice, msg.rec)
				if inFlight == nil {
					applyPrices()
				}
			default:
				if msg.trace.TraceID != 0 {
					pendingTrace = msg.trace
				}
				mutate(msg.rec)
			}
			progress()
		case <-inFlight:
			inFlight = nil
			applyPrices()
			progress()
		}
	}
}

// applyRecord folds one checked mutation record into the engine's state,
// live on the loop and replayed in recovery, so the recovered state is
// bit-identical to the pre-crash state. It reports an adoption (counted
// toward ReplanEvery) and a stock, price or clock change (a forced
// replan). Rescales run with no replan in flight, or in recovery.
func (e *Engine) applyRecord(rec store.Record) (adopted, force bool) {
	switch rec.Type {
	case store.RecEvent:
		return e.apply(rec), false
	case store.RecSetStock:
		e.stock[rec.Item].Store(rec.Stock)
	case store.RecScalePrice:
		e.in.ScalePrice(model.ItemID(rec.Item), model.TimeStep(rec.T), rec.Factor)
	case store.RecAdvance:
		// A live advance moved the clock before it was enqueued, so
		// lookups see it at once; a replayed one moves it here.
		if t := int64(rec.T); t > e.now.Load() {
			e.now.Store(t)
		}
	default:
		return false, false // a plan-swap marker: recovery replans from recovered state
	}
	return false, true
}

// apply folds one event record into the user store and stock; it
// reports whether the event was an adoption.
func (e *Engine) apply(rec store.Record) bool {
	u, item := model.UserID(rec.User), model.ItemID(rec.Item)
	sh := &e.shards[shardIndex(u, e.mask)]
	sh.mu.Lock()
	adopted, _ := e.users[u].Observe(e.in.Class(item), model.TimeStep(rec.T), rec.Adopted, model.MaxExposuresPerClass)
	sh.mu.Unlock()
	e.exposures.Add(1)
	if adopted {
		// Floor at zero: oversell reports beyond capacity don't go negative.
		for {
			cur := e.stock[item].Load()
			if cur <= 0 {
				break
			}
			if e.stock[item].CompareAndSwap(cur, cur-1) {
				break
			}
		}
		e.adoptions.Add(1)
	}
	return adopted
}

// collectFeedback copies the user store and stock into the planner's
// Feedback shape. It must run on the feedback-loop goroutine (the only
// writer, so it reads the store unlocked and stock and users can't tear
// apart mid-copy); the copy is deep, so the replan then works on the
// frozen view from any goroutine.
func (e *Engine) collectFeedback() planner.Feedback {
	fb := planner.Feedback{
		Users: model.CloneUsers(e.users),
		Stock: make([]int, e.in.NumItems()),
		Now:   e.Now(),
	}
	for i := range e.stock {
		fb.Stock[i] = int(e.stock[i].Load())
	}
	return fb
}

// Feedback exports a consistent copy of the engine's applied feedback
// state — adopted classes, exposure times, remaining stock, and the
// serving clock — in the planner's Feedback shape. The capture runs on
// the feedback loop between event applications, so no adoption is ever
// half-visible across stock and user state; call Flush first if
// queued-but-unapplied events must be included. It is the state-export
// hook a cross-engine coordinator replans from.
func (e *Engine) Feedback() (planner.Feedback, error) {
	// A loop in crash-discard mode answers with a zero clock; a live
	// engine's is always ≥ 1.
	return askLoop(e, func(ch chan planner.Feedback) feedbackMsg { return feedbackMsg{fb: ch} },
		e.collectFeedback, func(fb planner.Feedback) bool { return fb.Now != 0 })
}

// askLoop obtains one consistent capture of engine state: from the loop
// between applies (ask wraps the reply channel in a control message), or
// directly once the loop has drained after Close. A killed engine, or a
// loop answering in crash-discard mode (live false), yields ErrKilled.
func askLoop[T any](e *Engine, ask func(chan T) feedbackMsg, direct func() T, live func(T) bool) (T, error) {
	var zero T
	ch := make(chan T, 1)
	if err := e.enqueue(ask(ch)); err != nil {
		// The loop may still be draining buffered events after Close; wait
		// for it so no apply is in flight mid-capture.
		e.wg.Wait()
		if e.killed.Load() {
			return zero, ErrKilled
		}
		return direct(), nil
	}
	if v := <-ch; live(v) {
		return v, nil
	}
	return zero, ErrKilled
}

// replanWith recomputes the plan on the residual state induced by fb
// (plus, while the replan step keeps an incremental session, the delta
// journal) through the engine's planner.Replanner, and swaps the live
// plan. Lookups keep hitting the old plan until the single atomic store
// below. Replans are serialized (one in flight, the loop's completion
// channel orders handoffs), so the replanner needs no locking.
//
// span, when non-nil, is the replan's root trace span: the replanner
// adds its residual (or delta-sync) and solve children, replanWith the
// index and swap children, and replanWith ends it. The caller must not
// touch span afterwards.
func (e *Engine) replanWith(fb planner.Feedback, delta []store.Record, span *obs.Span) {
	start := time.Now()
	p := planFrom(e.in, e.rp.Replan(e.in, fb, delta, span, ""), fb.Now, span)
	ssp := span.Child("swap")
	e.installPlan(p)
	ssp.End()
	e.replans.Add(1)
	d := time.Since(start)
	e.met.replanSec.Observe(d.Seconds())
	span.SetInt("revision", p.revision)
	span.SetInt("triples", int64(p.triples))
	span.SetFloat("revenue", p.revenue)
	span.End()
	if e.logger != nil {
		obs.WithTrace(e.logger, span).Info("replan complete",
			"revision", p.revision, "triples", p.triples, "revenue", p.revenue,
			"now", int64(fb.Now), "duration_ms", float64(d.Microseconds())/1e3)
	}
}

// InstallPlan publishes a plan computed elsewhere — a cluster
// coordinator's slice of its global solve — on an InstallOnly engine. fp
// must address the engine's CandID space (a plan over Instance() or over
// any instance with the same candidates; only its membership bits are
// read) and is retained, so the caller must not mutate it afterwards.
// revenue is the plan's expected revenue on the residual it was solved
// for, from the step it plans from; both are published as given.
//
// The install runs on the feedback loop, after every event, advance,
// stock override and price rescale queued before it: the loop indexes the
// plan for serving (reading prices at that moment), swaps it in, writes
// the plan-swap marker to the write-ahead log and counts one replan — it
// is the engine's only planning step, so its duration feeds the replan
// histogram. InstallPlan returns once the plan serves. A span or trace
// ref in ctx makes the "install" span join the caller's trace.
func (e *Engine) InstallPlan(ctx context.Context, fp *model.Plan, revenue float64, from model.TimeStep) error {
	if !e.installOnly {
		return errors.New("serve: InstallPlan needs an InstallOnly engine (a planning engine's replans would overwrite the install)")
	}
	if fp == nil || fp.Instance().NumCands() != e.in.NumCands() {
		return errors.New("serve: InstallPlan plan does not address this engine's candidates")
	}
	if err := e.checkStep(from); err != nil {
		return err
	}
	ref := obs.TraceRefFromContext(ctx)
	op := &installOp{fp: fp, revenue: revenue, from: from, done: make(chan error, 1),
		span: e.met.tracer.StartRemote("install", ref.TraceID, ref.ParentID)}
	if err := e.enqueue(feedbackMsg{install: op}); err != nil {
		op.span.Drop()
		return err
	}
	return <-op.done
}

// install is InstallPlan's loop side.
func (e *Engine) install(op *installOp) {
	start := time.Now()
	isp := op.span.Child("index")
	p := buildPlanFlat(e.in, op.fp, op.from, op.revenue)
	isp.End()
	ssp := op.span.Child("swap")
	e.installPlan(p)
	ssp.End()
	e.replans.Add(1)
	d := time.Since(start)
	e.met.replanSec.Observe(d.Seconds())
	op.span.SetInt("revision", p.revision)
	op.span.SetInt("triples", int64(p.triples))
	op.span.SetFloat("revenue", p.revenue)
	op.span.End()
	if e.logger != nil {
		obs.WithTrace(e.logger, op.span).Info("plan installed",
			"revision", p.revision, "triples", p.triples, "revenue", p.revenue,
			"from", int64(op.from), "duration_ms", float64(d.Microseconds())/1e3)
	}
	op.done <- nil
}

// Strategy returns the live plan's strategy (do not mutate). The serving
// path never needs the map-backed form, so it is built here from the
// plan, once, on first request.
func (e *Engine) Strategy() *model.Strategy { return e.plan.Load().strategy() }

// Stats is a point-in-time summary of the engine, served over /v1/stats.
type Stats struct {
	Users          int     `json:"users"`
	Items          int     `json:"items"`
	Horizon        int     `json:"horizon"`
	K              int     `json:"k"`
	Shards         int     `json:"shards"`
	Now            int     `json:"now"`
	PlanRevision   int64   `json:"plan_revision"`
	PlanRevenue    float64 `json:"plan_revenue"`
	PlannedTriples int     `json:"planned_triples"`
	Replans        int64   `json:"replans"`
	Adoptions      int64   `json:"adoptions"`
	Exposures      int64   `json:"exposures"`
	Recommends     int64   `json:"recommends"`
	BatchUsers     int64   `json:"batch_users"`
	RequestErrors  int64   `json:"request_errors"`
	UptimeSeconds  float64 `json:"uptime_seconds"`
	P50Micros      int64   `json:"p50_micros"`
	P99Micros      int64   `json:"p99_micros"`
	BatchP50Micros int64   `json:"batch_p50_micros"`
	BatchP99Micros int64   `json:"batch_p99_micros"`
	// Durable marks an engine backed by a write-ahead log; WALNextLSN is
	// the next log sequence number (i.e. the record count ever logged).
	// Both are omitted for pure in-memory engines.
	Durable    bool   `json:"durable,omitempty"`
	WALNextLSN uint64 `json:"wal_next_lsn,omitempty"`
}

// Stats returns the current summary.
func (e *Engine) Stats() Stats {
	p := e.plan.Load()
	var durable bool
	var walNext uint64
	if e.st != nil {
		durable = true
		walNext = uint64(e.st.NextLSN())
	}
	return Stats{
		Durable:        durable,
		WALNextLSN:     walNext,
		Users:          e.in.NumUsers,
		Items:          e.in.NumItems(),
		Horizon:        e.in.T,
		K:              e.in.K,
		Shards:         len(e.shards),
		Now:            int(e.Now()),
		PlanRevision:   p.revision,
		PlanRevenue:    p.revenue,
		PlannedTriples: p.triples,
		Replans:        e.replans.Load(),
		Adoptions:      e.adoptions.Load(),
		Exposures:      e.exposures.Load(),
		Recommends:     e.met.recommends.Value(),
		BatchUsers:     e.met.batchUsers.Value(),
		RequestErrors:  e.met.errors.Value(),
		UptimeSeconds:  time.Since(e.met.start).Seconds(),
		P50Micros:      int64(e.met.lat.Quantile(0.50) * 1e6),
		P99Micros:      int64(e.met.lat.Quantile(0.99) * 1e6),
		BatchP50Micros: int64(e.met.blat.Quantile(0.50) * 1e6),
		BatchP99Micros: int64(e.met.blat.Quantile(0.99) * 1e6),
	}
}

// Metrics returns the engine's metric registry — the exposition source
// behind /metrics, shared with the durable store when one is attached.
// External collectors may register additional families on it.
func (e *Engine) Metrics() *obs.Registry { return e.met.reg }

// Tracer returns the engine's span tracer (the ring behind
// /debug/traces). Use SetEnabled to toggle tracing at runtime.
func (e *Engine) Tracer() *obs.Tracer { return e.met.tracer }

// SLO returns the engine's SLO watchdog (nil when disabled); its
// Status feeds the degraded-vs-ok section of /healthz.
func (e *Engine) SLO() *obs.SLOWatchdog { return e.slo }
