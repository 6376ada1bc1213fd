package cluster

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/solver"
)

// firstCandidates returns up to n (user, item) pairs with a candidate
// at step 1, one per user — material for adoption events that actually
// draw stock down.
func firstCandidates(tb testing.TB, in *model.Instance, n int) []serve.Event {
	tb.Helper()
	var out []serve.Event
	for u := 0; u < in.NumUsers && len(out) < n; u++ {
		for _, cand := range in.UserCandidates(model.UserID(u)) {
			if cand.T == 1 {
				out = append(out, serve.Event{User: model.UserID(u), Item: cand.I, T: 1, Adopted: true})
				break
			}
		}
	}
	if len(out) < n {
		tb.Fatalf("instance too sparse: found %d step-1 candidates, need %d", len(out), n)
	}
	return out
}

// TestFeedDrivesCoordinatedReplan is the self-driving barrier contract:
// a cluster that only ever receives adoptions — no Flush, no SetNow, the
// way an HTTP daemon runs — must still reconcile stock and replan once
// the adoption count reaches ReplanEvery, like a single engine's
// feedback loop would.
func TestFeedDrivesCoordinatedReplan(t *testing.T) {
	in := testInstance(t, 24, 13)
	const cadence = 4
	cl, err := New(in, Config{Shards: 2, ReplanEvery: cadence})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if got := cl.CoordinatorStats().Replans; got != 1 {
		t.Fatalf("boot replans = %d, want 1", got)
	}
	for _, ev := range firstCandidates(t, in, cadence) {
		if err := cl.Feed(ev); err != nil {
			t.Fatal(err)
		}
	}
	// The barrier runs on the background flusher; poll, never Flush.
	deadline := time.Now().Add(10 * time.Second)
	for cl.CoordinatorStats().Replans < 2 {
		if time.Now().After(deadline) {
			t.Fatal("no coordinated replan after ReplanEvery adoptions without an explicit Flush")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := cl.CoordinatorStats().ReconcileRounds; got == 0 {
		t.Error("replan ran but stock was never reconciled")
	}
}

// TestAdvanceRunsBarrierSynchronously pins SetNow's contract: when the
// clock moves, the coordinated barrier (reconcile + replan) has already
// run by the time the call returns — an /v1/advance caller reads fresh
// cross-shard stock with no Flush of its own.
func TestAdvanceRunsBarrierSynchronously(t *testing.T) {
	in := testInstance(t, 24, 17)
	cl, err := New(in.Clone(), Config{Shards: 2, ReplanEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ev := firstCandidates(t, in, 1)[0]
	if err := cl.Feed(ev); err != nil {
		t.Fatal(err)
	}
	if err := cl.SetNow(2); err != nil {
		t.Fatal(err)
	}
	// No Flush: SetNow itself owed the barrier.
	if got := cl.CoordinatorStats().Replans; got != 2 {
		t.Errorf("replans after advance = %d, want 2 (boot + advance barrier)", got)
	}
	n, err := cl.Stock(ev.Item)
	if err != nil {
		t.Fatal(err)
	}
	if want := in.Capacity(ev.Item) - 1; n != want {
		t.Errorf("item %d stock after advance = %d, want reconciled %d", ev.Item, n, want)
	}
}

// TestKilledShardBarrierErrorNotSticky: a barrier that runs while one
// shard is killed but not yet recovered must not poison the cluster's
// sticky error — the condition is transient, and a daemon draining
// after a successful RecoverShard would otherwise exit non-zero as if
// durable state were lost.
func TestKilledShardBarrierErrorNotSticky(t *testing.T) {
	in := testInstance(t, 24, 19)
	cfg := Config{Shards: 3, ReplanEvery: 1 << 30, Durability: &serve.Durability{Dir: t.TempDir()}}
	cl, err := Open(in.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// An adoption on a shard that stays alive, so the barrier has a
	// replan to attempt while the victim is down.
	const victim = 1
	var ev serve.Event
	for _, cand := range firstCandidates(t, in, in.NumUsers/2) {
		if shardOf(cand.User, cfg.Shards) != victim {
			ev = cand
			break
		}
	}
	if !ev.Adopted {
		t.Fatal("no step-1 candidate on a surviving shard")
	}
	if err := cl.Feed(ev); err != nil {
		t.Fatal(err)
	}
	if err := cl.KillShard(victim); err != nil {
		t.Fatal(err)
	}
	cl.Flush() // gathers feedback from a killed shard: transient, no replan
	if err := cl.Err(); err != nil {
		t.Fatalf("barrier over a killed shard recorded a sticky error: %v", err)
	}
	if err := cl.RecoverShard(victim); err != nil {
		t.Fatal(err)
	}
	before := cl.CoordinatorStats().Replans
	cl.Flush() // barrier stayed armed: this one must replan
	if got := cl.CoordinatorStats().Replans; got != before+1 {
		t.Errorf("post-recovery flush ran %d replans, want 1 (barrier should have stayed armed)", got-before)
	}
	if err := cl.Err(); err != nil {
		t.Fatalf("healthy recovered cluster still reports an error: %v", err)
	}
}

// TestScalePriceInstanceRace: Instance() snapshots must be safe to read
// concurrently with exogenous repricing (ScalePrice publishes fresh
// copies instead of mutating in place). Run under -race to make the
// guarantee mean something.
func TestScalePriceInstanceRace(t *testing.T) {
	in := testInstance(t, 24, 23)
	cl, err := New(in.Clone(), Config{Shards: 2, ReplanEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const item = model.ItemID(0)
	want := cl.Instance().Price(item, 1)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				snap := cl.Instance()
				for ts := 1; ts <= snap.T; ts++ {
					_ = snap.Price(item, model.TimeStep(ts))
				}
			}
		}
	}()
	const doublings = 8
	for i := 0; i < doublings; i++ {
		if err := cl.ScalePrice(item, 1, 2); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done
	want *= 1 << doublings
	if got := cl.Instance().Price(item, 1); got != want {
		t.Errorf("price after %d doublings = %v, want %v", doublings, got, want)
	}
}

// TestReplansCountedWhenPlanVisible: a coordinated replan is counted
// when its plan is installed, not when its solve starts, so Stats (and
// /v1/stats) moves replans and plan revenue together, as a single engine
// does. The solver's progress callback holds the barrier's solve open
// while the count is read.
func TestReplansCountedWhenPlanVisible(t *testing.T) {
	in := testInstance(t, 24, 29)
	var hold atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	progress := func(solver.Progress) {
		if hold.Load() {
			hold.Store(false)
			entered <- struct{}{}
			<-release
		}
	}
	cl, err := New(in.Clone(), Config{Shards: 2, ReplanEvery: 1 << 30, Solver: solver.Options{Progress: progress}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	before := cl.Stats().Replans
	if err := cl.Feed(firstCandidates(t, in, 1)[0]); err != nil {
		t.Fatal(err)
	}
	hold.Store(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		cl.Flush()
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the flush never reached the solver")
	}
	if got := cl.Stats().Replans; got != before {
		t.Errorf("replans = %d while the solve is still running, want %d", got, before)
	}
	close(release)
	<-done
	if got := cl.Stats().Replans; got != before+1 {
		t.Errorf("replans = %d after the plan was installed, want %d", got, before+1)
	}
}

// planningWork is what one shard engine has spent on planning: whether
// it has a solve family at all, replans (an install counts as one) and
// the replan and install spans in its trace ring.
type planningWork struct {
	solveFamily               bool
	replans                   int64
	replanSpans, installSpans int
}

// solveCount reads revmaxd_solve_seconds_count off reg; ok is false
// when reg has no solve family.
func solveCount(t *testing.T, reg *obs.Registry) (n int64, ok bool) {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	f := fams["revmaxd_solve_seconds"]
	if f == nil {
		return 0, false
	}
	for _, s := range f.Samples {
		if s.Name == "revmaxd_solve_seconds_count" {
			n = int64(s.Value)
		}
	}
	return n, true
}

func shardPlanningWork(t *testing.T, e *serve.Engine) planningWork {
	t.Helper()
	w := planningWork{replans: e.Stats().Replans}
	_, w.solveFamily = solveCount(t, e.Metrics())
	for _, sp := range e.Tracer().Traces() {
		switch sp.Name {
		case "replan":
			w.replanSpans++
		case "install":
			w.installSpans++
		}
	}
	return w
}

// TestShardsDoNoPlanningWork: a shard engine never plans on its own —
// not after ReplanEvery adoptions, not on a clock advance — and has no
// solve family; one coordinated barrier costs exactly one global solve,
// counted on the coordinator's registry, and one install per shard. The
// adoptions go straight to the shard's engine, so the cluster's own
// adoption cadence schedules no barrier behind the test's back.
func TestShardsDoNoPlanningWork(t *testing.T) {
	in := testInstance(t, 48, 23)
	const cadence = 4
	cl, err := New(in.Clone(), Config{Shards: 2, ReplanEvery: cadence})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	coordSolves := func() int64 {
		n, ok := solveCount(t, cl.co.reg)
		if !ok {
			t.Fatal("coordinator exports no revmaxd_solve_seconds family")
		}
		return n
	}
	if got := coordSolves(); got != 1 {
		t.Fatalf("coordinator solves after boot = %d, want 1", got)
	}
	booted := planningWork{replans: 1, installSpans: 1}
	for k := 0; k < cl.Shards(); k++ {
		if got := shardPlanningWork(t, cl.Engine(k)); got != booted {
			t.Fatalf("shard %d after boot: %+v, want %+v (one install, nothing else)", k, got, booted)
		}
	}

	shard := cl.Engine(0)
	fed := 0
	for u := 0; u < in.NumUsers && fed < 3*cadence; u += cl.Shards() {
		for _, cand := range in.UserCandidates(model.UserID(u)) {
			ev := serve.Event{User: localID(model.UserID(u), cl.Shards()), Item: cand.I, T: cand.T, Adopted: true}
			if cand.T != 1 || shard.Feed(ev) != nil {
				continue
			}
			fed++
			break
		}
	}
	if fed < 3*cadence {
		t.Fatalf("instance too sparse: %d step-1 adoptions for shard 0, need %d", fed, 3*cadence)
	}
	shard.Flush()
	if err := shard.SetNow(2); err != nil {
		t.Fatal(err)
	}
	shard.Flush()
	if got := shardPlanningWork(t, shard); got != booted {
		t.Fatalf("shard 0 after %d adoptions and an advance: %+v, want %+v (no planning until a barrier)", fed, got, booted)
	}
	if got := cl.CoordinatorStats().Replans; got != 1 {
		t.Fatalf("coordinator replans = %d before any barrier, want 1 (boot)", got)
	}
	if got := coordSolves(); got != 1 {
		t.Fatalf("coordinator solves = %d before any barrier, want 1 (boot)", got)
	}

	if err := cl.SetNow(2); err != nil {
		t.Fatal(err)
	}
	if got := cl.CoordinatorStats().Replans; got != 2 {
		t.Errorf("coordinator replans = %d after one barrier, want 2 (boot + one coordinated solve)", got)
	}
	if got := coordSolves(); got != 2 {
		t.Errorf("coordinator solves = %d after one barrier, want 2 (boot + one coordinated solve)", got)
	}
	barrier := planningWork{replans: 2, installSpans: 2}
	for k := 0; k < cl.Shards(); k++ {
		if got := shardPlanningWork(t, cl.Engine(k)); got != barrier {
			t.Errorf("shard %d after one barrier: %+v, want %+v (one more install, nothing else)", k, got, barrier)
		}
	}
}

// TestClusterCountsSolveFailures: a coordinated solve that fails —
// "optimal" beyond its exhaustive limit — serves an empty plan and is
// counted in the cluster's revmaxd_solve_failures_total, as a single
// engine counts its own.
func TestClusterCountsSolveFailures(t *testing.T) {
	in := testInstance(t, 48, 23)
	cl, err := New(in, Config{Shards: 2, Algorithm: solver.NameOptimal})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.SetNow(2); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cl.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var failures float64
	for _, s := range fams["revmaxd_solve_failures_total"].Samples {
		failures += s.Value
	}
	if failures < 1 {
		t.Errorf("revmaxd_solve_failures_total = %v after a boot and a barrier whose solves failed, want ≥ 1", failures)
	}
	if st := cl.Stats(); st.PlannedTriples != 0 {
		t.Errorf("planned triples = %d, want 0 (a failed solve serves an empty plan)", st.PlannedTriples)
	}
}
