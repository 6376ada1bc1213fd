package model_test

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/testgen"
)

// planRefOp drives the property test: Plan must behave exactly like the
// map-based Strategy under arbitrary Add/Remove/Contains/CheckValid
// sequences over the candidate space.
func planInstance(tb testing.TB, seed uint64) *model.Instance {
	tb.Helper()
	in := testgen.Random(dist.NewRNG(seed), testgen.Params{
		Users: 15, Items: 7, Classes: 3, T: 4, K: 2,
		MaxCap: 3, CandProb: 0.5, MinPrice: 1, MaxPrice: 50,
	})
	if err := in.Validate(); err != nil {
		tb.Fatal(err)
	}
	if in.NumCands() == 0 {
		tb.Fatal("instance has no candidates")
	}
	return in
}

// TestPlanMatchesStrategyProperty runs random operation sequences
// against both representations and requires identical observable
// behavior: membership, size, canonical triple order, and CheckValid
// verdicts after every mutation.
func TestPlanMatchesStrategyProperty(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		in := planInstance(t, 200+seed)
		rng := dist.NewRNG(seed)
		p := in.NewPlan()
		s := model.NewStrategy()

		for op := 0; op < 2000; op++ {
			id := model.CandID(rng.Intn(in.NumCands()))
			z := in.CandAt(id).Triple
			switch rng.Intn(4) {
			case 0:
				changed := p.Add(id)
				if changed == s.Contains(z) {
					t.Fatalf("seed %d op %d: Add(%v) changed=%v but strategy contained=%v", seed, op, z, changed, s.Contains(z))
				}
				s.Add(z)
			case 1:
				changed := p.Remove(id)
				if changed != s.Contains(z) {
					t.Fatalf("seed %d op %d: Remove(%v) changed=%v but strategy contained=%v", seed, op, z, changed, s.Contains(z))
				}
				s.Remove(z)
			case 2:
				if p.Contains(id) != s.Contains(z) {
					t.Fatalf("seed %d op %d: Contains(%v) disagrees", seed, op, z)
				}
			case 3:
				planErr := p.Valid()
				stratErr := in.CheckValid(s)
				if (planErr == nil) != (stratErr == nil) {
					t.Fatalf("seed %d op %d: Valid()=%v but CheckValid=%v", seed, op, planErr, stratErr)
				}
			}
			if p.Len() != s.Len() {
				t.Fatalf("seed %d op %d: plan len %d, strategy len %d", seed, op, p.Len(), s.Len())
			}
			if op%50 == 0 {
				checkPlanCounters(t, in, p, s)
			}
		}

		// Final state: canonical orders identical, conversions round-trip.
		pt := p.Triples()
		st := s.Triples()
		if len(pt) != len(st) {
			t.Fatalf("seed %d: %d plan triples, %d strategy triples", seed, len(pt), len(st))
		}
		for i := range pt {
			if pt[i] != st[i] {
				t.Fatalf("seed %d: triple %d: plan %v, strategy %v", seed, i, pt[i], st[i])
			}
		}
		rt, ok := in.PlanOf(p.Strategy())
		if !ok {
			t.Fatalf("seed %d: PlanOf(Strategy()) failed", seed)
		}
		if rt.Len() != p.Len() {
			t.Fatalf("seed %d: round-trip len %d, want %d", seed, rt.Len(), p.Len())
		}
		rt.Each(func(id model.CandID) bool {
			if !p.Contains(id) {
				t.Fatalf("seed %d: round-trip contains %d, original does not", seed, id)
			}
			return true
		})
	}
}

// checkPlanCounters recounts the plan's incremental counters by brute
// force from the reference strategy: an unchosen candidate's Check is
// PlanDisplay exactly when its display slot already holds ≥ K chosen
// candidates, and ItemUsers is the number of distinct recipients.
func checkPlanCounters(t *testing.T, in *model.Instance, p *model.Plan, s *model.Strategy) {
	t.Helper()
	for id := model.CandID(0); int(id) < in.NumCands(); id++ {
		if s.Contains(in.CandAt(id).Triple) {
			continue
		}
		inSlot := 0
		for _, sib := range in.SlotCandIDs(in.SlotOf(id)) {
			if s.Contains(in.CandAt(sib).Triple) {
				inSlot++
			}
		}
		if full := p.Check(id) == model.PlanDisplay; full != (inSlot >= in.K) {
			t.Fatalf("candidate %d: Check says slot full = %v, slot holds %d/%d", id, full, inSlot, in.K)
		}
	}
	recipients := make([]map[model.UserID]bool, in.NumItems())
	for _, z := range s.Triples() {
		if recipients[z.I] == nil {
			recipients[z.I] = map[model.UserID]bool{}
		}
		recipients[z.I][z.U] = true
	}
	for i := range recipients {
		if got, want := p.ItemUsers(model.ItemID(i)), len(recipients[i]); got != want {
			t.Fatalf("item %d: ItemUsers = %d, want %d distinct recipients", i, got, want)
		}
	}
}

// TestPlanValidMatchesCheckValidOnOverfullPlans drives plans past both
// constraint limits and checks Valid stays in lockstep with the
// strategy-side CheckValid, including back below the limit via Remove.
func TestPlanValidMatchesCheckValidOnOverfullPlans(t *testing.T) {
	in := planInstance(t, 77)
	p := in.NewPlan()
	s := model.NewStrategy()
	// Fill everything — guaranteed to blow the display limit somewhere.
	for id := model.CandID(0); int(id) < in.NumCands(); id++ {
		p.Add(id)
		s.Add(in.CandAt(id).Triple)
	}
	if p.Valid() == nil {
		t.Fatal("full plan reported valid")
	}
	if in.CheckValid(s) == nil {
		t.Fatal("full strategy reported valid")
	}
	// Drain back down; validity verdicts must agree the whole way.
	for id := model.CandID(0); int(id) < in.NumCands(); id++ {
		p.Remove(id)
		s.Remove(in.CandAt(id).Triple)
		if (p.Valid() == nil) != (in.CheckValid(s) == nil) {
			t.Fatalf("validity diverged at drain step %d", id)
		}
	}
	if p.Len() != 0 || p.Valid() != nil {
		t.Fatalf("drained plan: len %d, valid %v", p.Len(), p.Valid())
	}
}

// TestCheckValidAllocationFree pins the satellite claim: validating an
// all-candidate strategy allocates nothing after pool warmup.
func TestCheckValidAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates inside sync.Pool")
	}
	in := planInstance(t, 99)
	p := in.NewPlan()
	for id := model.CandID(0); int(id) < in.NumCands(); id += 3 {
		if p.Check(id) == model.PlanOK {
			p.Add(id)
		}
	}
	s := p.Strategy()
	if err := in.CheckValid(s); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := in.CheckValid(s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("CheckValid allocates %.1f objects per run, want 0", allocs)
	}
}
