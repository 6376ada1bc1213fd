package scenario

import (
	"bytes"
	"fmt"
	"testing"
)

// incrSuiteScenario pins the registry algorithm the persistent session
// replays, G-Greedy. Both runs of a cell share the scenario, so the
// declared name lands identically in the canonical Outcome JSON.
func incrSuiteScenario(sc Scenario) Scenario {
	sc = crashSuiteScenario(sc)
	sc.Algorithm = "g-greedy"
	return sc
}

// TestIncrementalEquivalenceMatrix is the acceptance gate of the
// persistent-session replan path: for every catalog archetype, seed,
// and solver worker count (revmaxd's -workers, which G-Greedy must
// ignore), a closed-loop run whose engine replans through a
// core.Session (Config.Incremental) must produce canonical Outcome
// JSON byte-identical to the non-incremental run — against cold
// G-Greedy without warm starts, and against the warm-started solver
// with them. Any invalidation miss (a candidate whose upper bound
// should have been re-keyed but was not), any journal/replay skew, or
// any heap-restoration drift cascades into a different selection order
// and a byte diff.
func TestIncrementalEquivalenceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("incremental equivalence matrix is not short")
	}
	for _, arch := range Catalog() {
		for seed := uint64(1); seed <= 3; seed++ {
			for _, workers := range []int{1, 2, 8} {
				arch, seed, workers := arch, seed, workers
				for _, warm := range []bool{false, true} {
					warm := warm
					mode := "cold"
					if warm {
						mode = "warm"
					}
					t.Run(fmt.Sprintf("%s/seed%d/w%d/%s", arch.Name, seed, workers, mode), func(t *testing.T) {
						t.Parallel()
						sc := incrSuiteScenario(arch)
						base, err := Runner{Workers: workers, WarmStart: warm}.Run(sc, seed)
						if err != nil {
							t.Fatal(err)
						}
						baseJSON, err := base.CanonicalJSON()
						if err != nil {
							t.Fatal(err)
						}
						incr, err := Runner{Workers: workers, WarmStart: warm, Incremental: true}.Run(sc, seed)
						if err != nil {
							t.Fatal(err)
						}
						incrJSON, err := incr.CanonicalJSON()
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(baseJSON, incrJSON) {
							t.Fatalf("incremental outcome diverged from %s baseline\nbaseline:\n%s\nincremental:\n%s",
								mode, baseJSON, incrJSON)
						}
					})
				}
			}
		}
	}
}

// TestIncrementalCrashEquivalence extends the gate with fault
// injection: the incremental engine is kill -9'd at a pseudo-random
// step of every trajectory and recovered from its WAL — the recovered
// engine starts with no session and rebuilds one from the replayed
// state at its first replan — and the outcome must still match the
// undisturbed non-incremental run byte for byte.
func TestIncrementalCrashEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("incremental crash matrix is not short")
	}
	for _, arch := range Catalog() {
		arch := arch
		t.Run(arch.Name, func(t *testing.T) {
			t.Parallel()
			const seed = uint64(2)
			sc := incrSuiteScenario(arch)
			base, err := Runner{WarmStart: true}.Run(sc, seed)
			if err != nil {
				t.Fatal(err)
			}
			baseJSON, err := base.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			crashed, err := Runner{
				WarmStart:    true,
				Incremental:  true,
				DataDir:      t.TempDir(),
				CrashRecover: true,
			}.Run(sc, seed)
			if err != nil {
				t.Fatal(err)
			}
			crashedJSON, err := crashed.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(baseJSON, crashedJSON) {
				t.Fatalf("crash-recovered incremental outcome diverged from uninterrupted baseline\nbaseline:\n%s\nincremental+crash:\n%s",
					baseJSON, crashedJSON)
			}
		})
	}
}

// TestIncrementalClusterEquivalence closes the loop at the cluster
// layer: a sharded fleet whose coordinator replans through a
// persistent session must match the non-incremental cluster (and
// therefore, by the cluster equivalence gate, the single engine) byte
// for byte.
func TestIncrementalClusterEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("incremental cluster matrix is not short")
	}
	for _, arch := range []Scenario{FlashSale(), InventoryShock(), PriceWar()} {
		arch := arch
		t.Run(arch.Name, func(t *testing.T) {
			t.Parallel()
			const seed = uint64(3)
			sc := incrSuiteScenario(arch)
			base, err := Runner{Shards: 3, WarmStart: true}.Run(sc, seed)
			if err != nil {
				t.Fatal(err)
			}
			baseJSON, err := base.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			incr, err := Runner{Shards: 3, WarmStart: true, Incremental: true}.Run(sc, seed)
			if err != nil {
				t.Fatal(err)
			}
			incrJSON, err := incr.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(baseJSON, incrJSON) {
				t.Fatalf("incremental cluster outcome diverged\nbaseline:\n%s\nincremental:\n%s", baseJSON, incrJSON)
			}
		})
	}
}
