package serve_test

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/revenue"
	"repro/internal/scenario"
	"repro/internal/serve"
)

// checkPlanRoutes compares the engine's live plan — index, revenue bits,
// planned-from step, triple count — with the same plan rebuilt through
// the Strategy route, and checks that the engine indexed it from CandIDs.
func checkPlanRoutes(t *testing.T, tag string, e *serve.Engine) {
	t.Helper()
	e.Flush()
	live, fromCandIDs := e.LivePlan()
	if !fromCandIDs {
		t.Fatalf("%s: plan not indexed from CandIDs", tag)
	}
	ref, err := e.StrategyRoutePlan()
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	if !reflect.DeepEqual(live, ref) {
		t.Fatalf("%s: live plan differs from its Strategy-route rebuild (triples %d vs %d, from %d vs %d, revenue bits %x vs %x, index equal: %v)",
			tag, live.Triples, ref.Triples, live.From, ref.From, live.RevenueBits, ref.RevenueBits,
			reflect.DeepEqual(live.PerUser, ref.PerUser))
	}
	if st := e.Stats(); st.PlannedTriples != live.Triples {
		t.Fatalf("%s: Stats.PlannedTriples %d, plan holds %d", tag, st.PlannedTriples, live.Triples)
	}
}

// server is what feedRound drives: a serve.Engine or a cluster.Cluster.
type server interface {
	Instance() *model.Instance
	Now() model.TimeStep
	Recommend(u model.UserID, t model.TimeStep) ([]serve.Recommendation, error)
	Feed(ev serve.Event) error
	ScalePrice(i model.ItemID, from model.TimeStep, factor float64) error
	SetStock(i model.ItemID, n int) error
	SetNow(t model.TimeStep) error
}

// feedRound adopts what a stride of users is currently served, rescales
// one item's price, overrides one item's stock, and (every other round)
// advances the clock — each a replan trigger of a different kind.
func feedRound(t *testing.T, e server, round int) {
	t.Helper()
	in := e.Instance()
	now := e.Now()
	for u := round % 3; u < in.NumUsers; u += 3 {
		recs, err := e.Recommend(model.UserID(u), now)
		if err != nil {
			t.Fatal(err)
		}
		for k, rec := range recs {
			if err := e.Feed(serve.Event{User: model.UserID(u), Item: rec.Item, T: now, Adopted: (u+k+round)%2 == 0}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.ScalePrice(model.ItemID(round%in.NumItems()), now, 0.7); err != nil {
		t.Fatal(err)
	}
	if err := e.SetStock(model.ItemID((round+3)%in.NumItems()), round%3); err != nil {
		t.Fatal(err)
	}
	if round%2 == 1 && int(now) < in.T {
		if err := e.SetNow(now + 1); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPlanFromCandIDsMatchesStrategyRoute: on every scenario archetype,
// a plan the engine indexed from CandIDs, with the solve's carried
// revenue, is DeepEqual to the Strategy-route rebuild — at boot, across
// replans that include price rescales and stock overrides, after kill -9
// → Open recovery, and after Snapshot/Restore. A from-scratch engine's
// residual solves live in another CandID space, so its plans are mapped
// to the engine's CandIDs first (Instance.BaseIDs); a restored snapshot's
// strategy is mapped by PlanOf.
func TestPlanFromCandIDsMatchesStrategyRoute(t *testing.T) {
	for _, arch := range scenario.Catalog() {
		for _, tc := range []struct {
			name string
			cfg  serve.Config
		}{
			{"scratch", serve.Config{}},
			{"incremental", serve.Config{Incremental: true}},
			{"incremental-warm", serve.Config{Incremental: true, WarmStart: true}},
		} {
			t.Run(arch.Name+"/"+tc.name, func(t *testing.T) {
				in, err := scenario.Build(arch, 1)
				if err != nil {
					t.Fatal(err)
				}
				cfg := tc.cfg
				cfg.Shards = 2
				durable := cfg
				durable.Durability = &serve.Durability{Dir: t.TempDir()}

				e, err := serve.Open(in, durable)
				if err != nil {
					t.Fatal(err)
				}
				checkPlanRoutes(t, "boot", e)
				for round := 0; round < 3; round++ {
					feedRound(t, e, round)
					checkPlanRoutes(t, "replan", e)
				}
				if err := e.Sync(); err != nil {
					t.Fatal(err)
				}
				e.Kill()

				// Recovery installs the snapshotted strategy, replays the WAL
				// tail and replans once: an incremental engine bootstraps a
				// fresh session there.
				e, err = serve.Open(nil, durable)
				if err != nil {
					t.Fatal(err)
				}
				checkPlanRoutes(t, "recovered", e)
				feedRound(t, e, 3)
				checkPlanRoutes(t, "recovered replan", e)

				var img bytes.Buffer
				if err := e.Snapshot(&img); err != nil {
					t.Fatal(err)
				}
				e.Close()
				r, err := serve.Restore(&img, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				checkPlanRoutes(t, "restored", r)
				feedRound(t, r, 4)
				checkPlanRoutes(t, "restored replan", r)
			})
		}
	}
}

// checkShardRoutes holds a cluster's served plans to the Strategy route
// after a barrier: every shard's index, revenue bits, planned-from step
// and size are DeepEqual to buildPlan over its own sub-instance with
// revenue.Revenue on its own residual, and the global plan revenue is
// revenue.Revenue on the global residual of the merged shard feedback.
func checkShardRoutes(t *testing.T, tag string, cl *cluster.Cluster) {
	t.Helper()
	cl.Flush()
	n := cl.Shards()
	merged := planner.Feedback{
		Users: make([]model.UserFeedback, cl.Instance().NumUsers),
		Now:   cl.Now(),
	}
	for k := 0; k < n; k++ {
		e := cl.Engine(k)
		checkPlanRoutes(t, fmt.Sprintf("%s: shard %d", tag, k), e)
		fb, err := e.Feedback()
		if err != nil {
			t.Fatalf("%s: shard %d: %v", tag, k, err)
		}
		for lu, f := range fb.Users {
			merged.Users[lu*n+k] = f
		}
	}
	in := cl.Instance()
	for i := 0; i < in.NumItems(); i++ {
		r, err := cl.Stock(model.ItemID(i))
		if err != nil {
			t.Fatal(err)
		}
		merged.Stock = append(merged.Stock, r)
	}
	want := revenue.Revenue(planner.Residual(in, merged), cl.Strategy())
	if got := cl.Stats().PlanRevenue; math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: cluster plan_revenue %v (bits %x), revenue.Revenue on the global residual %v (bits %x)",
			tag, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestClusterShardPlansMatchStrategyRoute is the cluster twin of
// TestPlanFromCandIDsMatchesStrategyRoute: on every scenario archetype,
// for a cold, an incremental and a warm-started coordinator, each
// shard's installed slice — mapped to the shard's CandIDs by span
// offsets, its revenue summed from the solve's group partials — equals
// the Strategy route after every barrier, after a one-shard kill -9 and
// RecoverShard, and after a whole-cluster kill -9 and Open.
func TestClusterShardPlansMatchStrategyRoute(t *testing.T) {
	for _, arch := range scenario.Catalog() {
		for _, tc := range []struct {
			name string
			cfg  cluster.Config
		}{
			{"cold", cluster.Config{}},
			{"incremental", cluster.Config{Incremental: true}},
			{"warm", cluster.Config{WarmStart: true}},
		} {
			t.Run(arch.Name+"/"+tc.name, func(t *testing.T) {
				in, err := scenario.Build(arch, 1)
				if err != nil {
					t.Fatal(err)
				}
				cfg := tc.cfg
				cfg.Shards = 2
				cfg.Durability = &serve.Durability{Dir: t.TempDir()}

				cl, err := cluster.Open(in, cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkShardRoutes(t, "boot", cl)
				for round := 0; round < 3; round++ {
					feedRound(t, cl, round)
					checkShardRoutes(t, fmt.Sprintf("round %d", round), cl)
				}
				if err := cl.KillShard(1); err != nil {
					t.Fatal(err)
				}
				if err := cl.RecoverShard(1); err != nil {
					t.Fatal(err)
				}
				checkShardRoutes(t, "shard recovered", cl)
				feedRound(t, cl, 3)
				checkShardRoutes(t, "shard recovered, round 3", cl)
				if err := cl.Sync(); err != nil {
					t.Fatal(err)
				}
				cl.Kill()

				cl, err = cluster.Open(nil, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				checkShardRoutes(t, "recovered", cl)
				feedRound(t, cl, 4)
				checkShardRoutes(t, "recovered, round 4", cl)
			})
		}
	}
}
