package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/solver"
	"repro/internal/testgen"
)

func testInstance(tb testing.TB, users int, seed uint64) *model.Instance {
	tb.Helper()
	rng := dist.NewRNG(seed)
	return testgen.Random(rng, testgen.Params{
		Users: users, Items: 8, Classes: 4, T: 5, K: 2,
		MaxCap: 4, CandProb: 0.5, MinPrice: 1, MaxPrice: 100,
	})
}

// server is the surface shared by serve.Engine and Cluster that the
// equivalence trajectory drives.
type server interface {
	RecommendBatch(users []model.UserID, t model.TimeStep) ([][]serve.Recommendation, error)
	Feed(ev serve.Event) error
	Flush()
	SetNow(t model.TimeStep) error
	Stock(i model.ItemID) (int, error)
	Strategy() *model.Strategy
}

// trajectory drives s through a deterministic closed loop over in:
// recommend everyone each step, adopt by seeded coin flips (one flip
// per positive-probability recommendation, so equal recommendation
// streams consume equal randomness), feed the outcomes, barrier, and
// advance. It returns everything observable: the per-step
// recommendation stream, each step's post-barrier strategy and stock
// vector, and the adoption log.
type trajectoryResult struct {
	Recs       [][][]serve.Recommendation
	Strategies [][]model.Triple
	Stocks     [][]int
	Adoptions  []serve.Event
}

func runTrajectory(t *testing.T, in *model.Instance, s server, seed uint64) trajectoryResult {
	t.Helper()
	rng := dist.NewRNG(seed)
	var out trajectoryResult
	users := make([]model.UserID, in.NumUsers)
	for u := range users {
		users[u] = model.UserID(u)
	}
	adopted := make(map[model.UserID]map[model.ClassID]bool)
	for step := 1; step <= in.T; step++ {
		ts := model.TimeStep(step)
		recs, err := s.RecommendBatch(users, ts)
		if err != nil {
			t.Fatalf("step %d: RecommendBatch: %v", step, err)
		}
		out.Recs = append(out.Recs, recs)
		for _, u := range users {
			for _, rec := range recs[u] {
				if rec.Prob <= 0 {
					continue
				}
				coin := rng.Float64() < rec.Prob
				class := in.Class(rec.Item)
				first := coin && !adopted[u][class]
				if first {
					if adopted[u] == nil {
						adopted[u] = make(map[model.ClassID]bool)
					}
					adopted[u][class] = true
				}
				ev := serve.Event{User: u, Item: rec.Item, T: ts, Adopted: first}
				if err := s.Feed(ev); err != nil {
					t.Fatalf("step %d: Feed(%+v): %v", step, ev, err)
				}
				if first {
					out.Adoptions = append(out.Adoptions, ev)
				}
			}
		}
		s.Flush()
		if step < in.T {
			if err := s.SetNow(ts + 1); err != nil {
				t.Fatalf("step %d: SetNow: %v", step, err)
			}
			s.Flush()
		}
		out.Strategies = append(out.Strategies, s.Strategy().Triples())
		stock := make([]int, in.NumItems())
		for i := range stock {
			n, err := s.Stock(model.ItemID(i))
			if err != nil {
				t.Fatalf("step %d: Stock(%d): %v", step, i, err)
			}
			stock[i] = n
		}
		out.Stocks = append(out.Stocks, stock)
	}
	return out
}

func assertTrajectoriesEqual(t *testing.T, want, got trajectoryResult, label string) {
	t.Helper()
	if !reflect.DeepEqual(want.Recs, got.Recs) {
		t.Errorf("%s: recommendation streams diverge", label)
	}
	if !reflect.DeepEqual(want.Strategies, got.Strategies) {
		t.Errorf("%s: installed strategies diverge", label)
	}
	if !reflect.DeepEqual(want.Stocks, got.Stocks) {
		t.Errorf("%s: stock ledgers diverge", label)
	}
	if !reflect.DeepEqual(want.Adoptions, got.Adoptions) {
		t.Errorf("%s: adoption logs diverge", label)
	}
}

// TestClusterMatchesSingleEngine is the package-level equivalence
// check: a cluster of any shard count must serve the same
// recommendations, install the same strategies, and settle the same
// stock ledger as one engine, step for step. (The full archetype
// catalog is covered in internal/scenario.)
func TestClusterMatchesSingleEngine(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			in := testInstance(t, 24, seed)
			eng, err := serve.NewEngine(in.Clone(), serve.Config{ReplanEvery: 1 << 30})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			want := runTrajectory(t, in, eng, seed*77)
			for _, shards := range []int{1, 2, 4} {
				cl, err := New(in.Clone(), Config{Shards: shards, ReplanEvery: 1 << 30})
				if err != nil {
					t.Fatal(err)
				}
				got := runTrajectory(t, in, cl, seed*77)
				assertTrajectoriesEqual(t, want, got, fmt.Sprintf("shards=%d", shards))
				cl.Close()
			}
		})
	}
}

// TestClusterStockNeverNegative drives heavy adoption through a
// many-shard cluster and asserts the coordinator's invariants: stock
// never goes below zero and the installed plan never violates an
// item's distinct-user quota.
func TestClusterStockNeverNegative(t *testing.T) {
	in := testInstance(t, 32, 9)
	cl, err := New(in, Config{Shards: 4, ReplanEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for step := 1; step <= in.T; step++ {
		ts := model.TimeStep(step)
		for u := 0; u < in.NumUsers; u++ {
			for _, cand := range in.UserCandidates(model.UserID(u)) {
				if cand.T != ts {
					continue
				}
				// Adopt aggressively: every candidate of the step.
				if err := cl.Feed(serve.Event{User: model.UserID(u), Item: cand.I, T: ts, Adopted: true}); err != nil {
					t.Fatal(err)
				}
			}
		}
		cl.Flush()
		for i := 0; i < in.NumItems(); i++ {
			n, err := cl.Stock(model.ItemID(i))
			if err != nil {
				t.Fatal(err)
			}
			if n < 0 {
				t.Fatalf("step %d: item %d stock went negative: %d", step, i, n)
			}
		}
		if err := cl.Instance().CheckValid(cl.Strategy()); err != nil {
			t.Fatalf("step %d: installed plan violates global constraints: %v", step, err)
		}
		if step < in.T {
			if err := cl.SetNow(ts + 1); err != nil {
				t.Fatal(err)
			}
			cl.Flush()
		}
	}
}

func TestClusterValidation(t *testing.T) {
	in := testInstance(t, 6, 1)
	if _, err := New(in, Config{Shards: 0}); err == nil {
		t.Error("Shards=0 accepted")
	}
	if _, err := New(in, Config{Shards: 7}); err == nil {
		t.Error("Shards > user count accepted")
	}
	if _, err := New(in, Config{Shards: 2, Durability: &serve.Durability{Dir: t.TempDir()}}); err == nil {
		t.Error("New accepted a durable config")
	}
	if _, err := Open(nil, Config{Shards: 2}); err == nil {
		t.Error("Open accepted nil instance without durable state")
	}
	rating := func(model.UserID, model.ItemID) float64 { return 1 }
	if _, err := New(in, Config{Shards: 2, Algorithm: "top-rating", Solver: solver.Options{Rating: rating}}); err == nil {
		t.Error("New accepted a plan-less algorithm")
	}
	if _, err := New(in, Config{Shards: 2, Algorithm: "local-search"}); err == nil {
		t.Error("New accepted a capacity-relaxed algorithm")
	}
}

// TestClusterDurableCloseReopen round-trips a durable cluster through
// graceful Close: the recovered cluster must resume with the same
// clock, stock ledger, and a plan the recovered state validates.
func TestClusterDurableCloseReopen(t *testing.T) {
	in := testInstance(t, 24, 3)
	dir := t.TempDir()
	cfg := Config{Shards: 3, ReplanEvery: 1 << 30, Durability: &serve.Durability{Dir: dir}}
	cl, err := Open(in.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	runTrajectory(t, in, cl, 42)
	wantStock := make([]int, in.NumItems())
	for i := range wantStock {
		wantStock[i], _ = cl.Stock(model.ItemID(i))
	}
	wantNow := cl.Now()
	cl.Close()
	if err := cl.Err(); err != nil {
		t.Fatalf("durability error: %v", err)
	}

	re, err := Open(nil, cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if re.Now() != wantNow {
		t.Errorf("recovered clock %d, want %d", re.Now(), wantNow)
	}
	for i := range wantStock {
		got, err := re.Stock(model.ItemID(i))
		if err != nil {
			t.Fatal(err)
		}
		if got != wantStock[i] {
			t.Errorf("item %d: recovered stock %d, want %d", i, got, wantStock[i])
		}
	}
	if err := re.Instance().CheckValid(re.Strategy()); err != nil {
		t.Errorf("recovered plan invalid: %v", err)
	}
}

// TestClusterKillRecovery kill-9s the whole cluster mid-horizon and
// asserts the recovered fleet resumes from the last flushed barrier
// with a non-inflated stock ledger.
func TestClusterKillRecovery(t *testing.T) {
	in := testInstance(t, 24, 5)
	dir := t.TempDir()
	cfg := Config{Shards: 2, ReplanEvery: 1 << 30, Durability: &serve.Durability{Dir: dir}}
	cl, err := Open(in.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One full barriered step, then adoptions that are flushed, then die.
	for u := 0; u < in.NumUsers; u++ {
		for _, cand := range in.UserCandidates(model.UserID(u)) {
			if cand.T == 1 {
				if err := cl.Feed(serve.Event{User: model.UserID(u), Item: cand.I, T: 1, Adopted: true}); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
	}
	cl.Flush()
	if err := cl.SetNow(2); err != nil {
		t.Fatal(err)
	}
	cl.Flush()
	wantStock := make([]int, in.NumItems())
	for i := range wantStock {
		wantStock[i], _ = cl.Stock(model.ItemID(i))
	}
	cl.Kill()

	re, err := Open(nil, cfg)
	if err != nil {
		t.Fatalf("recover after kill: %v", err)
	}
	defer re.Close()
	if got := re.Now(); got != 2 {
		t.Errorf("recovered clock %d, want 2", got)
	}
	for i := range wantStock {
		got, err := re.Stock(model.ItemID(i))
		if err != nil {
			t.Fatal(err)
		}
		if got != wantStock[i] {
			t.Errorf("item %d: recovered stock %d, want flushed %d", i, got, wantStock[i])
		}
	}
	if err := re.Instance().CheckValid(re.Strategy()); err != nil {
		t.Errorf("recovered plan invalid: %v", err)
	}
}

// TestKillRecoverOneShard kills a single shard, recovers it in place,
// and asserts the rest of the trajectory matches an undisturbed run —
// the one-victim analogue of the full equivalence test.
func TestKillRecoverOneShard(t *testing.T) {
	in := testInstance(t, 24, 7)
	baseline := func() trajectoryResult {
		eng, err := serve.NewEngine(in.Clone(), serve.Config{ReplanEvery: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		return runTrajectory(t, in, eng, 99)
	}()

	dir := t.TempDir()
	cfg := Config{Shards: 3, ReplanEvery: 1 << 30, Durability: &serve.Durability{Dir: dir}}
	cl, err := Open(in.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Re-run the same trajectory, but kill and recover shard 1 between
	// the step-2 barrier and the step-3 serves.
	rng := dist.NewRNG(99)
	users := make([]model.UserID, in.NumUsers)
	for u := range users {
		users[u] = model.UserID(u)
	}
	adopted := make(map[model.UserID]map[model.ClassID]bool)
	var got trajectoryResult
	for step := 1; step <= in.T; step++ {
		ts := model.TimeStep(step)
		recs, err := cl.RecommendBatch(users, ts)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		got.Recs = append(got.Recs, recs)
		for _, u := range users {
			for _, rec := range recs[u] {
				if rec.Prob <= 0 {
					continue
				}
				coin := rng.Float64() < rec.Prob
				class := in.Class(rec.Item)
				first := coin && !adopted[u][class]
				if first {
					if adopted[u] == nil {
						adopted[u] = make(map[model.ClassID]bool)
					}
					adopted[u][class] = true
				}
				ev := serve.Event{User: u, Item: rec.Item, T: ts, Adopted: first}
				if err := cl.Feed(ev); err != nil {
					t.Fatal(err)
				}
				if first {
					got.Adoptions = append(got.Adoptions, ev)
				}
			}
		}
		cl.Flush()
		if step < in.T {
			if err := cl.SetNow(ts + 1); err != nil {
				t.Fatal(err)
			}
			cl.Flush()
		}
		if step == 2 {
			if err := cl.KillShard(1); err != nil {
				t.Fatal(err)
			}
			if err := cl.RecoverShard(1); err != nil {
				t.Fatal(err)
			}
		}
		got.Strategies = append(got.Strategies, cl.Strategy().Triples())
		stock := make([]int, in.NumItems())
		for i := range stock {
			stock[i], _ = cl.Stock(model.ItemID(i))
		}
		got.Stocks = append(got.Stocks, stock)
	}
	assertTrajectoriesEqual(t, baseline, got, "kill+recover shard 1")
	if err := cl.Err(); err != nil {
		t.Fatalf("cluster error after recovery: %v", err)
	}
}

// TestOpenRejectsShardCountChange pins the durable-layout contract: a
// cluster laid out with N shards refuses to boot with a different N.
func TestOpenRejectsShardCountChange(t *testing.T) {
	in := testInstance(t, 24, 11)
	dir := t.TempDir()
	cl, err := Open(in.Clone(), Config{Shards: 2, Durability: &serve.Durability{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if _, err := Open(nil, Config{Shards: 3, Durability: &serve.Durability{Dir: dir}}); err == nil {
		t.Fatal("shard-count increase accepted on recovery")
	}
	if _, err := Open(nil, Config{Shards: 1, Durability: &serve.Durability{Dir: dir}}); err == nil {
		t.Fatal("shard-count decrease accepted on recovery")
	}
}
