package cluster

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/serve"
)

// TestClusterIncrementalMatchesBaseline: an incremental coordinator's
// every barrier — recommendations served, strategies installed, stock
// reconciled, adoptions logged — is byte-identical to a baseline
// coordinator's on the same closed-loop trajectory, cold and warm, at
// several shard counts.
func TestClusterIncrementalMatchesBaseline(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"cold", Config{}},
		{"warm", Config{WarmStart: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			in := testInstance(t, 24, 13)
			for _, shards := range []int{1, 3} {
				base := tc.cfg
				base.Shards = shards
				base.ReplanEvery = 1 << 30
				incr := base
				incr.Incremental = true
				a, err := New(in.Clone(), base)
				if err != nil {
					t.Fatal(err)
				}
				want := runTrajectory(t, in, a, 55)
				a.Close()
				b, err := New(in.Clone(), incr)
				if err != nil {
					t.Fatal(err)
				}
				got := runTrajectory(t, in, b, 55)
				b.Close()
				assertTrajectoriesEqual(t, want, got, fmt.Sprintf("shards=%d", shards))
			}
		})
	}
}

// clusterScript drives two clusters through one identical round of
// feedback: an adoption burst, a round-dependent exogenous change
// (stock override, price rescale, or clock advance), and a barrier.
func clusterScript(t *testing.T, a, b *Cluster, in *model.Instance) func(round int) {
	t.Helper()
	feedBoth := func(ev serve.Event) {
		if err := a.Feed(ev); err != nil {
			t.Fatal(err)
		}
		if err := b.Feed(ev); err != nil {
			t.Fatal(err)
		}
	}
	return func(round int) {
		for k := 0; k < 5; k++ {
			n := round*5 + k
			feedBoth(serve.Event{
				User:    model.UserID(n % in.NumUsers),
				Item:    model.ItemID((n * 3) % in.NumItems()),
				T:       model.TimeStep(n%in.T + 1),
				Adopted: n%3 != 2,
			})
		}
		switch round % 4 {
		case 1:
			i := model.ItemID(round % in.NumItems())
			if err := a.SetStock(i, round%3+1); err != nil {
				t.Fatal(err)
			}
			if err := b.SetStock(i, round%3+1); err != nil {
				t.Fatal(err)
			}
		case 2:
			i := model.ItemID((round * 5) % in.NumItems())
			if err := a.ScalePrice(i, model.TimeStep(round%in.T+1), 0.8); err != nil {
				t.Fatal(err)
			}
			if err := b.ScalePrice(i, model.TimeStep(round%in.T+1), 0.8); err != nil {
				t.Fatal(err)
			}
		case 3:
			if now := a.Now(); int(now) < in.T {
				if err := a.SetNow(now + 1); err != nil {
					t.Fatal(err)
				}
				if err := b.SetNow(now + 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		a.Flush()
		b.Flush()
	}
}

func assertSameGlobalPlan(t *testing.T, tag string, a, b *Cluster) {
	t.Helper()
	at, bt := a.Strategy().Triples(), b.Strategy().Triples()
	if len(at) != len(bt) {
		t.Fatalf("%s: plan sizes differ: %d vs %d", tag, len(at), len(bt))
	}
	for i := range at {
		if at[i] != bt[i] {
			t.Fatalf("%s: plans diverge at %d: %v vs %v", tag, i, at[i], bt[i])
		}
	}
	ar, br := a.Stats().PlanRevenue, b.Stats().PlanRevenue
	if math.Float64bits(ar) != math.Float64bits(br) {
		t.Fatalf("%s: plan revenue bits differ: %.17g vs %.17g", tag, ar, br)
	}
}

// TestClusterIncrementalValidation: Incremental demands the registry's
// G-Greedy algorithm, by name or alias.
func TestClusterIncrementalValidation(t *testing.T) {
	in := testInstance(t, 6, 1)
	if _, err := New(in.Clone(), Config{Shards: 2, Incremental: true, Algorithm: "rl-greedy"}); err == nil {
		t.Error("Incremental with rl-greedy accepted")
	}
	cl, err := New(in.Clone(), Config{Shards: 2, Incremental: true, Algorithm: "gg"}) // alias resolves
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
}

// TestClusterIncrementalDurableRecovery: a baseline and an incremental
// durable cluster run the same script, die by kill -9, recover, and
// keep matching barrier-for-barrier. The recovered incremental
// coordinator starts with no session and rebuilds one from the first
// post-recovery barrier's merged feedback, so this covers the
// bootstrap-from-recovered-state path end-to-end.
func TestClusterIncrementalDurableRecovery(t *testing.T) {
	in := testInstance(t, 24, 17)
	mk := func(dir string, incremental bool) Config {
		return Config{
			Shards:      2,
			WarmStart:   true,
			Incremental: incremental,
			ReplanEvery: 1 << 30,
			Durability:  &serve.Durability{Dir: dir},
		}
	}
	aDir, bDir := t.TempDir(), t.TempDir()
	a, err := Open(in.Clone(), mk(aDir, false))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(in.Clone(), mk(bDir, true))
	if err != nil {
		t.Fatal(err)
	}
	step := clusterScript(t, a, b, in)
	for round := 0; round < 4; round++ {
		step(round)
		assertSameGlobalPlan(t, fmt.Sprintf("round %d", round), a, b)
	}
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	a.Kill()
	b.Kill()

	a, err = Open(nil, mk(aDir, false))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	b, err = Open(nil, mk(bDir, true))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	assertSameGlobalPlan(t, "post-recovery", a, b)
	step = clusterScript(t, a, b, a.Instance())
	for round := 4; round < 8; round++ {
		step(round)
		assertSameGlobalPlan(t, fmt.Sprintf("post-recovery round %d", round), a, b)
	}
}
