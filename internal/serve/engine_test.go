package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/solver"
)

// testInstance builds a moderately dense instance: users×items
// candidates across the horizon, a handful of competition classes,
// capacities tight enough that feedback actually changes replans.
func testInstance(t testing.TB, users, items, horizon, k int, seed uint64) *model.Instance {
	t.Helper()
	rng := dist.NewRNG(seed)
	in := model.NewInstance(users, items, horizon, k)
	for i := 0; i < items; i++ {
		in.SetItem(model.ItemID(i), model.ClassID(i%4), 0.6, users/3+1)
		for ts := 1; ts <= horizon; ts++ {
			in.SetPrice(model.ItemID(i), model.TimeStep(ts), 10+5*float64(i)+float64(ts))
		}
	}
	for u := 0; u < users; u++ {
		for i := 0; i < items; i++ {
			if q := rng.Uniform(-0.3, 0.7); q > 0 {
				for ts := 1; ts <= horizon; ts++ {
					in.AddCandidate(model.UserID(u), model.ItemID(i), model.TimeStep(ts), q)
				}
			}
		}
	}
	in.FinishCandidates()
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	return in
}

func newTestEngine(t testing.TB, in *model.Instance, cfg Config) *Engine {
	t.Helper()
	// The zero Config resolves to solver.DefaultAlgorithm (G-Greedy)
	// through the registry; tests exercise exactly that path.
	e, err := NewEngine(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func TestRecommendMatchesPlan(t *testing.T) {
	in := testInstance(t, 60, 8, 3, 2, 1)
	e := newTestEngine(t, in, Config{})
	s := e.Strategy()
	for u := 0; u < in.NumUsers; u++ {
		for ts := 1; ts <= in.T; ts++ {
			recs, err := e.Recommend(model.UserID(u), model.TimeStep(ts))
			if err != nil {
				t.Fatal(err)
			}
			// Every served item must be in the strategy for (u, t), with the
			// primitive q (no feedback yet) and the catalog price.
			for _, rec := range recs {
				z := model.Triple{U: model.UserID(u), I: rec.Item, T: model.TimeStep(ts)}
				if !s.Contains(z) {
					t.Fatalf("served %v not in strategy", z)
				}
				if want := in.Q(z.U, z.I, z.T); rec.Prob != want {
					t.Fatalf("%v: prob %v, want primitive q %v", z, rec.Prob, want)
				}
				if want := in.Price(z.I, z.T); rec.Price != want {
					t.Fatalf("%v: price %v, want %v", z, rec.Price, want)
				}
			}
			if len(recs) > in.K {
				t.Fatalf("user %d at t=%d got %d recs, display limit %d", u, ts, len(recs), in.K)
			}
		}
	}
}

func TestRecommendValidation(t *testing.T) {
	in := testInstance(t, 10, 4, 2, 1, 2)
	e := newTestEngine(t, in, Config{})
	if _, err := e.Recommend(-1, 1); err == nil {
		t.Fatal("negative user accepted")
	}
	if _, err := e.Recommend(model.UserID(in.NumUsers), 1); err == nil {
		t.Fatal("out-of-range user accepted")
	}
	if _, err := e.Recommend(0, 0); err == nil {
		t.Fatal("t=0 accepted")
	}
	if _, err := e.Recommend(0, model.TimeStep(in.T+1)); err == nil {
		t.Fatal("t>T accepted")
	}
	if err := e.Feed(Event{User: 0, Item: model.ItemID(in.NumItems()), T: 1}); err == nil {
		t.Fatal("unknown item accepted")
	}
	if err := e.SetNow(0); err == nil {
		t.Fatal("SetNow(0) accepted")
	}
	if err := e.SetNow(2); err != nil {
		t.Fatal(err)
	}
	if err := e.SetNow(1); err == nil {
		t.Fatal("clock moved backwards")
	}
}

func TestAdoptionSuppressesClassAndStock(t *testing.T) {
	in := testInstance(t, 40, 8, 3, 2, 3)
	e := newTestEngine(t, in, Config{ReplanEvery: 1 << 30}) // no auto replans: isolate store effects
	var victim model.UserID
	var recs []Recommendation
	for u := 0; u < in.NumUsers; u++ {
		rs, err := e.Recommend(model.UserID(u), 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) > 0 {
			victim, recs = model.UserID(u), rs
			break
		}
	}
	if recs == nil {
		t.Fatal("no user has recommendations at t=1")
	}
	item := recs[0].Item
	if err := e.Feed(Event{User: victim, Item: item, T: 1, Adopted: true}); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	class := in.Class(item)
	for ts := 1; ts <= in.T; ts++ {
		rs, err := e.Recommend(victim, model.TimeStep(ts))
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range rs {
			if in.Class(rec.Item) == class && rec.Prob != 0 {
				t.Fatalf("t=%d: item %d in adopted class still has prob %v", ts, rec.Item, rec.Prob)
			}
		}
	}
	if got := e.Stats().Adoptions; got != 1 {
		t.Fatalf("adoptions = %d, want 1", got)
	}
}

func TestExposureDiscountsProb(t *testing.T) {
	in := testInstance(t, 40, 8, 4, 2, 4)
	e := newTestEngine(t, in, Config{ReplanEvery: 1 << 30})
	var victim model.UserID
	var item model.ItemID
	found := false
	for u := 0; u < in.NumUsers && !found; u++ {
		rs, _ := e.Recommend(model.UserID(u), 2)
		if len(rs) > 0 {
			victim, item, found = model.UserID(u), rs[0].Item, true
		}
	}
	if !found {
		t.Fatal("no user has recommendations at t=2")
	}
	before, _ := e.Recommend(victim, 2)
	// Expose (no adoption) at t=1: saturation memory 1/(2-1) = 1 should
	// multiply q by beta.
	if err := e.Feed(Event{User: victim, Item: item, T: 1, Adopted: false}); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	after, _ := e.Recommend(victim, 2)
	class := in.Class(item)
	for i := range before {
		if in.Class(before[i].Item) != class {
			continue
		}
		want := before[i].Prob * in.Beta(before[i].Item)
		if diff := after[i].Prob - want; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("item %d: prob after exposure %v, want %v", before[i].Item, after[i].Prob, want)
		}
	}
}

func TestBatchMatchesSingle(t *testing.T) {
	in := testInstance(t, 120, 10, 3, 2, 5)
	e := newTestEngine(t, in, Config{ReplanEvery: 5})
	// Mix in some feedback so batch and single run against non-trivial state.
	for u := 0; u < 30; u++ {
		rs, _ := e.Recommend(model.UserID(u), 1)
		if len(rs) > 0 {
			if err := e.Feed(Event{User: model.UserID(u), Item: rs[0].Item, T: 1, Adopted: u%2 == 0}); err != nil {
				t.Fatal(err)
			}
		}
	}
	e.Flush()
	users := make([]model.UserID, in.NumUsers)
	for u := range users {
		users[u] = model.UserID(u)
	}
	for ts := 1; ts <= in.T; ts++ {
		batch, err := e.RecommendBatch(users, model.TimeStep(ts))
		if err != nil {
			t.Fatal(err)
		}
		for u, got := range batch {
			want, err := e.Recommend(model.UserID(u), model.TimeStep(ts))
			if err != nil {
				t.Fatal(err)
			}
			gj, _ := json.Marshal(got)
			wj, _ := json.Marshal(want)
			if !bytes.Equal(gj, wj) {
				t.Fatalf("u=%d t=%d: batch %s != single %s", u, ts, gj, wj)
			}
		}
	}
	if _, err := e.RecommendBatch([]model.UserID{0, model.UserID(in.NumUsers)}, 1); err == nil {
		t.Fatal("batch with out-of-range user accepted")
	}
}

// TestConcurrentMixedTraffic is the acceptance-criteria test: ≥ 32
// concurrent clients, ≥ 10k Recommend lookups, mixed with adoption
// feedback, batch lookups, snapshots, stats, and clock advances, all
// under -race.
func TestConcurrentMixedTraffic(t *testing.T) {
	in := testInstance(t, 300, 12, 4, 2, 6)
	e := newTestEngine(t, in, Config{ReplanEvery: 16})

	const (
		clients    = 32
		perClient  = 400 // 32 × 400 = 12800 single lookups ≥ 10k
		feedEvery  = 9
		batchEvery = 50
		snapEvery  = 150
	)
	var served atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := dist.NewRNG(uint64(1000 + c))
			for i := 0; i < perClient; i++ {
				u := model.UserID(rng.Intn(in.NumUsers))
				ts := model.TimeStep(1 + rng.Intn(in.T))
				recs, err := e.Recommend(u, ts)
				if err != nil {
					t.Error(err)
					return
				}
				served.Add(1)
				if i%feedEvery == 0 && len(recs) > 0 {
					ev := Event{User: u, Item: recs[0].Item, T: ts, Adopted: rng.Float64() < 0.5}
					if err := e.Feed(ev); err != nil {
						t.Error(err)
						return
					}
				}
				if i%batchEvery == 0 {
					users := make([]model.UserID, 32)
					for j := range users {
						users[j] = model.UserID(rng.Intn(in.NumUsers))
					}
					if _, err := e.RecommendBatch(users, ts); err != nil {
						t.Error(err)
						return
					}
				}
				if i%snapEvery == 0 {
					var buf bytes.Buffer
					if err := e.Snapshot(&buf); err != nil {
						t.Error(err)
						return
					}
				}
				if i%100 == 0 {
					_ = e.Stats()
				}
			}
		}(c)
	}
	// One client advances the clock partway through.
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = e.SetNow(2)
	}()
	wg.Wait()
	e.Flush()

	if got := served.Load(); got < 10000 {
		t.Fatalf("served %d single lookups, want ≥ 10000", got)
	}
	st := e.Stats()
	if st.Replans == 0 {
		t.Fatal("no replans happened under adoption traffic")
	}
	if st.Adoptions == 0 {
		t.Fatal("no adoptions applied")
	}
	// The engine must still serve coherently after the storm.
	if _, err := e.Recommend(0, model.TimeStep(in.T)); err != nil {
		t.Fatal(err)
	}
}

// TestReplanDeterminism: same instance seed + same feedback sequence ⇒
// identical strategy after replan, regardless of shard count.
func TestReplanDeterminism(t *testing.T) {
	events := func(in *model.Instance) []Event {
		rng := dist.NewRNG(99)
		var evs []Event
		for n := 0; n < 120; n++ {
			evs = append(evs, Event{
				User:    model.UserID(rng.Intn(in.NumUsers)),
				Item:    model.ItemID(rng.Intn(in.NumItems())),
				T:       model.TimeStep(1 + rng.Intn(in.T)),
				Adopted: rng.Float64() < 0.4,
			})
		}
		return evs
	}
	run := func(shards int) []model.Triple {
		in := testInstance(t, 150, 10, 3, 2, 42)
		e := newTestEngine(t, in, Config{ReplanEvery: 1 << 30, Shards: shards})
		for _, ev := range events(in) {
			if err := e.Feed(ev); err != nil {
				t.Fatal(err)
			}
		}
		e.Flush() // applies everything, then replans exactly once
		return e.Strategy().Triples()
	}
	a := run(1)
	b := run(8)
	c := run(8)
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	cj, _ := json.Marshal(c)
	if !bytes.Equal(aj, bj) || !bytes.Equal(bj, cj) {
		t.Fatalf("replan not deterministic across runs/shard counts:\n a=%s\n b=%s\n c=%s", aj, bj, cj)
	}
}

// TestSnapshotRestoreByteIdentical is the acceptance-criteria
// kill/restart test: a restored engine answers every (user, t) query
// with byte-identical JSON.
func TestSnapshotRestoreByteIdentical(t *testing.T) {
	in := testInstance(t, 200, 10, 4, 2, 7)
	e := newTestEngine(t, in, Config{ReplanEvery: 10})
	rng := dist.NewRNG(5)
	for n := 0; n < 150; n++ {
		u := model.UserID(rng.Intn(in.NumUsers))
		ts := model.TimeStep(1 + rng.Intn(in.T))
		recs, err := e.Recommend(u, ts)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) > 0 {
			if err := e.Feed(Event{User: u, Item: recs[0].Item, T: ts, Adopted: rng.Float64() < 0.6}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.SetNow(2); err != nil {
		t.Fatal(err)
	}
	e.Flush()

	var snap bytes.Buffer
	if err := e.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(bytes.NewReader(snap.Bytes()), Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)

	if got, want := r.Now(), e.Now(); got != want {
		t.Fatalf("restored clock %d, want %d", got, want)
	}
	if got, want := r.Stats().PlanRevision, e.Stats().PlanRevision; got != want {
		t.Fatalf("restored plan revision %d, want %d", got, want)
	}
	for u := 0; u < in.NumUsers; u++ {
		for ts := 1; ts <= in.T; ts++ {
			a, err := e.Recommend(model.UserID(u), model.TimeStep(ts))
			if err != nil {
				t.Fatal(err)
			}
			b, err := r.Recommend(model.UserID(u), model.TimeStep(ts))
			if err != nil {
				t.Fatal(err)
			}
			aj, _ := json.Marshal(a)
			bj, _ := json.Marshal(b)
			if !bytes.Equal(aj, bj) {
				t.Fatalf("u=%d t=%d: original %s, restored %s", u, ts, aj, bj)
			}
		}
	}

	// A second snapshot from the restored engine must round-trip too.
	var snap2 bytes.Buffer
	if err := r.Snapshot(&snap2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap.Bytes(), snap2.Bytes()) {
		t.Fatal("snapshot → restore → snapshot is not a fixed point")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	if _, err := Restore(bytes.NewReader([]byte("{}")), Config{}); err == nil {
		t.Fatal("empty snapshot accepted")
	}
	if _, err := Restore(bytes.NewReader([]byte("not json")), Config{}); err == nil {
		t.Fatal("garbage accepted")
	}
	in := testInstance(t, 10, 4, 2, 1, 8)
	e := newTestEngine(t, in, Config{})
	snap := snapshotBytes(t, e)
	if _, err := Restore(bytes.NewReader(snap), Config{Algorithm: "no-such-algorithm"}); err == nil {
		t.Fatal("restore with an unknown algorithm name accepted")
	}
	// Every corruption must be rejected with an error, not a panic.
	for _, c := range snapCorruptions() {
		if _, err := Restore(bytes.NewReader(c.corrupt(t, snap)), Config{}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("snapshot with %s: error %v, want one naming %q", c.name, err, c.want)
		}
	}
	if _, err := Restore(bytes.NewReader(snap), Config{}); err != nil {
		t.Fatalf("corruptions damaged the original image: %v", err)
	}
}

func TestFeedAfterCloseFails(t *testing.T) {
	in := testInstance(t, 10, 4, 2, 1, 9)
	e, err := NewEngine(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // idempotent
	if err := e.Feed(Event{User: 0, Item: 0, T: 1}); err == nil {
		t.Fatal("Feed accepted after Close")
	}
	e.Flush() // must not hang or panic
	// Lookups still work on the last plan.
	if _, err := e.Recommend(0, 1); err != nil {
		t.Fatal(err)
	}
}

func TestShardCount(t *testing.T) {
	for _, tc := range []struct{ req, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16},
	} {
		if got := shardCount(tc.req); got != tc.want {
			t.Fatalf("shardCount(%d) = %d, want %d", tc.req, got, tc.want)
		}
	}
	if got := shardCount(0); got&(got-1) != 0 || got < 1 {
		t.Fatalf("shardCount(0) = %d, not a power of two", got)
	}
}

func TestStatsAndMetricsRender(t *testing.T) {
	in := testInstance(t, 30, 6, 2, 1, 10)
	e := newTestEngine(t, in, Config{})
	for u := 0; u < 30; u++ {
		if _, err := e.Recommend(model.UserID(u), 1); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Recommends != 30 {
		t.Fatalf("Recommends = %d, want 30", st.Recommends)
	}
	if st.Users != 30 || st.Horizon != 2 {
		t.Fatalf("bad shape in stats: %+v", st)
	}
	var buf bytes.Buffer
	_ = e.WriteMetrics(&buf)
	out := buf.String()
	for _, want := range []string{
		"revmaxd_recommend_total 30",
		"# TYPE revmaxd_recommend_total counter",
		"revmaxd_plan_revision",
		"# TYPE revmaxd_latency_seconds histogram",
		"revmaxd_latency_seconds_bucket{le=\"+Inf\"}",
		"revmaxd_latency_seconds_count",
		"revmaxd_solve_seconds_bucket",
		"revmaxd_qps_avg",
	} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
	// The scrape must be exposition-format conformant end to end.
	if _, err := obs.ParseExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("scrape fails conformance: %v\n%s", err, out)
	}
}

func BenchmarkEngineRecommend(b *testing.B) {
	in := testInstance(b, 1000, 16, 4, 2, 11)
	e := newTestEngine(b, in, Config{})
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		u := 0
		for pb.Next() {
			if _, err := e.Recommend(model.UserID(u%in.NumUsers), model.TimeStep(1+u%in.T)); err != nil {
				b.Fatal(err)
			}
			u++
		}
	})
}

func BenchmarkEngineRecommendBatch(b *testing.B) {
	in := testInstance(b, 1000, 16, 4, 2, 12)
	e := newTestEngine(b, in, Config{})
	users := make([]model.UserID, 256)
	for i := range users {
		users[i] = model.UserID(i * 3 % in.NumUsers)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RecommendBatch(users, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSetStockOverridesInventory: an exogenous stock override is
// applied in order with queued feedback, zeroes recommendations for
// the depleted item after a flush, and is visible through Stock.
func TestSetStockOverridesInventory(t *testing.T) {
	in := testInstance(t, 12, 4, 3, 2, 21)
	e := newTestEngine(t, in, Config{ReplanEvery: 1 << 30})
	if err := e.SetStock(0, 0); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	if got, err := e.Stock(0); err != nil || got != 0 {
		t.Fatalf("Stock(0) = %d, %v; want 0", got, err)
	}
	for u := 0; u < in.NumUsers; u++ {
		for ts := model.TimeStep(1); int(ts) <= in.T; ts++ {
			recs, err := e.Recommend(model.UserID(u), ts)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range recs {
				if rec.Item == 0 && rec.Prob != 0 {
					t.Fatalf("user %d t=%d: item 0 served with prob %v after stock-out", u, ts, rec.Prob)
				}
			}
		}
	}
	// Restock: the item becomes recommendable again on the next replan.
	if err := e.SetStock(0, 5); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	if got, _ := e.Stock(0); got != 5 {
		t.Fatalf("Stock(0) = %d after restock, want 5", got)
	}
	// Negative values clamp, out-of-range items error.
	if err := e.SetStock(0, -3); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	if got, _ := e.Stock(0); got != 0 {
		t.Fatalf("Stock(0) = %d after negative override, want 0", got)
	}
	if err := e.SetStock(99, 1); err == nil {
		t.Fatal("SetStock accepted an unknown item")
	}
	if _, err := e.Stock(99); err == nil {
		t.Fatal("Stock accepted an unknown item")
	}
}

func ExampleEngine() {
	in := model.NewInstance(2, 2, 1, 1)
	in.SetItem(0, 0, 1, 2)
	in.SetItem(1, 1, 1, 2)
	in.SetPrice(0, 1, 10)
	in.SetPrice(1, 1, 20)
	in.AddCandidate(0, 0, 1, 0.5)
	in.AddCandidate(1, 1, 1, 0.25)
	in.FinishCandidates()
	e, _ := NewEngine(in, Config{})
	defer e.Close()
	recs, _ := e.Recommend(0, 1)
	fmt.Printf("user 0 at t=1: item %d, price %.0f, prob %.2f\n", recs[0].Item, recs[0].Price, recs[0].Prob)
	// Output: user 0 at t=1: item 0, price 10, prob 0.50
}

// TestConfigAlgorithmResolution: a named algorithm (alias spelling
// included) resolves through the solver registry and plans exactly
// what a direct G-Greedy run plans; an unknown name, or a name that
// returns no plan to serve, fails engine construction.
func TestConfigAlgorithmResolution(t *testing.T) {
	in := testInstance(t, 24, 6, 3, 1, 4)
	named, err := NewEngine(in, Config{Algorithm: "GG", ReplanEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer named.Close()
	a, b := named.Strategy().Triples(), core.GGreedy(in).Strategy.Triples()
	if len(a) != len(b) {
		t.Fatalf("named plan has %d triples, direct G-Greedy %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plans diverge at triple %d: %v != %v", i, a[i], b[i])
		}
	}
	if _, err := NewEngine(in, Config{Algorithm: "no-such-algorithm"}); err == nil {
		t.Fatal("unknown algorithm name accepted")
	}
	// top-rating returns no candidate-indexed plan, so it cannot serve,
	// even with the Rating predictor it needs to run.
	rating := func(model.UserID, model.ItemID) float64 { return 1 }
	if _, err := NewEngine(in, Config{Algorithm: "top-rating", Solver: solver.Options{Rating: rating}}); err == nil {
		t.Fatal("plan-less algorithm accepted")
	}
	// local-search plans R-REVMAX, which may exceed item capacity.
	if _, err := NewEngine(in, Config{Algorithm: "local-search"}); err == nil {
		t.Fatal("capacity-relaxed algorithm accepted")
	}
}

// TestConfigSolverAlgorithmFallback: with Config.Algorithm empty, the
// name inside Config.Solver wins over the default (regression:
// planFunc used to clobber it with the empty string).
func TestConfigSolverAlgorithmFallback(t *testing.T) {
	in := testInstance(t, 24, 6, 3, 1, 4)
	viaSolver, err := NewEngine(in, Config{Solver: solver.Options{Algorithm: "sl-greedy"}, ReplanEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer viaSolver.Close()
	want := core.SLGreedy(in).Strategy.Triples()
	got := viaSolver.Strategy().Triples()
	if len(got) != len(want) {
		t.Fatalf("Solver.Algorithm fallback planned %d triples, SL-Greedy plans %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("triple %d: %v != %v", i, got[i], want[i])
		}
	}
}

// TestInstallOnlyEngine: an InstallOnly engine boots on an empty plan and
// never plans — adoptions past ReplanEvery, an advance, a stock
// override, a price rescale and Flush leave its replan count at zero and
// its trace ring free of replans — then serves exactly the plan
// InstallPlan hands it, counted as one replan under an "install" span.
// InstallPlan is refused on a planning engine, for a plan over other
// candidates, and once the engine is closed.
func TestInstallOnlyEngine(t *testing.T) {
	in := testInstance(t, 24, 6, 3, 1, 4)
	e, err := NewEngine(in.Clone(), Config{InstallOnly: true, ReplanEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.PlannedTriples != 0 || st.Replans != 0 {
		t.Fatalf("boot: %d planned triples, %d replans; want an empty plan and no replan", st.PlannedTriples, st.Replans)
	}
	for u := 0; u < 8; u++ {
		if err := e.Feed(Event{User: model.UserID(u), Item: model.ItemID(u % 6), T: 1, Adopted: true}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.SetStock(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.ScalePrice(1, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := e.SetNow(2); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	if st := e.Stats(); st.Replans != 0 || st.Adoptions == 0 {
		t.Fatalf("after feedback: %d replans, %d adoptions; want no replan and the adoptions applied", st.Replans, st.Adoptions)
	}
	for _, sp := range e.Tracer().Traces() {
		if sp.Name == "replan" || sp.Name == "plan" {
			t.Fatalf("install-only engine traced a %q", sp.Name)
		}
	}

	res := core.GGreedy(in)
	if err := e.InstallPlan(context.Background(), res.Plan, res.CanonicalRevenue, 2); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Replans != 1 || st.PlannedTriples != res.Plan.Len() || st.PlanRevenue != res.CanonicalRevenue {
		t.Fatalf("after install: %d replans, %d triples, revenue %v; want 1, %d, %v",
			st.Replans, st.PlannedTriples, st.PlanRevenue, res.Plan.Len(), res.CanonicalRevenue)
	}
	if got, want := e.Strategy().Triples(), res.Strategy.Triples(); !reflect.DeepEqual(got, want) {
		t.Fatalf("installed strategy has %d triples, the solve %d", len(got), len(want))
	}
	var install *obs.SpanData
	for _, sp := range e.Tracer().Traces() {
		if sp.Name == "install" {
			install = &sp
		}
	}
	if install == nil || len(install.Children) != 2 || install.Children[0].Name != "index" || install.Children[1].Name != "swap" {
		t.Fatalf("install span = %+v, want index and swap children", install)
	}

	planning := newTestEngine(t, in.Clone(), Config{ReplanEvery: 1 << 30})
	if err := planning.InstallPlan(context.Background(), res.Plan, 0, 1); err == nil {
		t.Error("InstallPlan accepted on a planning engine")
	}
	other := testInstance(t, 12, 6, 3, 1, 5)
	if err := e.InstallPlan(context.Background(), other.NewPlan(), 0, 1); err == nil {
		t.Error("InstallPlan accepted a plan over another instance's candidates")
	}
	e.Close()
	if err := e.InstallPlan(context.Background(), res.Plan, 0, 1); !errors.Is(err, ErrClosed) {
		t.Errorf("InstallPlan on a closed engine: %v, want ErrClosed", err)
	}
}
