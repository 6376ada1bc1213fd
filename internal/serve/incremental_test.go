package serve

import (
	"math"
	"testing"

	"repro/internal/model"
)

// incrScript drives two engines through an identical feedback script —
// adoption bursts, stock shocks, price rescales, clock advances — with
// a Flush barrier after every round so both see deterministic replan
// boundaries (each burst stays under ReplanEvery, so exactly the Flush
// covers it). Returns a closure that advances both engines one round.
func incrScript(t *testing.T, a, b *Engine, in *model.Instance) func(round int) {
	t.Helper()
	feedBoth := func(ev Event) {
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
			feedBoth(Event{
				User:    model.UserID(n % in.NumUsers),
				Item:    model.ItemID((n * 3) % in.NumItems()),
				T:       model.TimeStep(n%in.T + 1),
				Adopted: n%3 != 2,
			})
		}
		switch round % 4 {
		case 1:
			i := model.ItemID(round % in.NumItems())
			if err := a.SetStock(i, round%3); err != nil {
				t.Fatal(err)
			}
			if err := b.SetStock(i, round%3); err != nil {
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

func assertSamePlan(t *testing.T, tag string, a, b *Engine) {
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

// TestIncrementalMatchesBaseline: an incremental engine's every
// installed plan is byte-identical to a baseline engine's on the same
// feedback script, cold and warm.
func TestIncrementalMatchesBaseline(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"cold", Config{}},
		{"warm", Config{WarmStart: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := testInstance(t, 50, 8, 4, 2, 91)
			base := tc.cfg
			base.ReplanEvery = 64
			base.Shards = 2
			incr := base
			incr.Incremental = true
			a := newTestEngine(t, in.Clone(), base)
			b := newTestEngine(t, in.Clone(), incr)
			step := incrScript(t, a, b, in)
			for round := 0; round < 12; round++ {
				step(round)
				assertSamePlan(t, tc.name, a, b)
			}
		})
	}
}

// TestIncrementalConfigValidation: Incremental demands a registry
// G-Greedy algorithm and an engine that plans.
func TestIncrementalConfigValidation(t *testing.T) {
	in := testInstance(t, 10, 4, 2, 1, 7)
	if _, err := NewEngine(in, Config{Incremental: true, Algorithm: "rl-greedy"}); err == nil {
		t.Fatal("Incremental with rl-greedy must fail construction")
	}
	if _, err := NewEngine(in, Config{Incremental: true, InstallOnly: true}); err == nil {
		t.Fatal("Incremental with InstallOnly must fail construction")
	}
	e, err := NewEngine(in, Config{Incremental: true, Algorithm: "gg"}) // alias resolves
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
}

// TestIncrementalDurableRecovery: two durable engines — baseline and
// incremental — run the same script, get killed, recover, and keep
// matching plan-for-plan. The recovered incremental engine bootstraps a
// fresh session from the WAL-replayed state, so recovery convergence is
// the LoadFeedback path end-to-end.
func TestIncrementalDurableRecovery(t *testing.T) {
	in := testInstance(t, 40, 6, 3, 2, 93)
	mk := func(dir string, incremental bool) Config {
		return Config{
			WarmStart:   true,
			Incremental: incremental,
			ReplanEvery: 64,
			Shards:      2,
			Durability:  &Durability{Dir: dir},
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
	step := incrScript(t, a, b, in)
	for round := 0; round < 5; round++ {
		step(round)
	}
	assertSamePlan(t, "pre-kill", a, b)
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
	assertSamePlan(t, "post-recovery", a, b)
	step = incrScript(t, a, b, a.Instance())
	for round := 5; round < 10; round++ {
		step(round)
		assertSamePlan(t, "post-recovery-replan", a, b)
	}
}
