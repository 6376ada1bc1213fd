package planner_test

import (
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/testgen"
)

// TestFeedbackIsFrozen pins Planner.Feedback's contract: the returned
// value is a deep copy, so later Observe calls must not leak into it.
func TestFeedbackIsFrozen(t *testing.T) {
	rng := dist.NewRNG(31)
	in := testgen.Random(rng, testgen.Default())
	p := planner.New(in, ggAlgo)

	// Execute one step with everything adopted to populate state.
	recs, err := p.PlanStep()
	if err != nil {
		t.Fatal(err)
	}
	var adopted []model.Triple
	for _, r := range recs {
		if r.Prob > 0 {
			adopted = append(adopted, r.Triple)
		}
	}
	if err := p.Observe(recs, adopted); err != nil {
		t.Fatal(err)
	}

	fb := p.Feedback()
	if fb.Now != 2 {
		t.Fatalf("Now = %d, want 2", fb.Now)
	}
	before := model.CloneUsers(fb.Users)

	// Drive the planner further; fb must not change.
	for !p.Done() {
		recs, err := p.PlanStep()
		if err != nil {
			t.Fatal(err)
		}
		var all []model.Triple
		for _, r := range recs {
			if r.Prob > 0 {
				all = append(all, r.Triple)
			}
		}
		if err := p.Observe(recs, all); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(fb.Users, before) {
		t.Fatal("frozen Feedback's histories changed under later Observe calls")
	}

	// The frozen view must reproduce the residual the planner itself saw
	// at that point: candidates at t >= 2, conditioned on step-1 history.
	res := planner.Residual(in, fb)
	for u := 0; u < in.NumUsers; u++ {
		for _, c := range res.UserCandidates(model.UserID(u)) {
			if c.T < 2 {
				t.Fatalf("residual kept pre-Now candidate %v", c.Triple)
			}
		}
	}
}

// TestResidualNilFeedbackDefaults: the zero Feedback means "no
// observations, full stock, from the start".
func TestResidualNilFeedbackDefaults(t *testing.T) {
	rng := dist.NewRNG(32)
	in := testgen.Random(rng, testgen.Default())
	res := planner.Residual(in, planner.Feedback{})
	if got, want := res.NumCandidates(), in.NumCandidates(); got != want {
		t.Fatalf("zero-feedback residual has %d candidates, want %d", got, want)
	}
	for i := 0; i < in.NumItems(); i++ {
		if got, want := res.Capacity(model.ItemID(i)), in.Capacity(model.ItemID(i)); got != want {
			t.Fatalf("item %d capacity %d, want %d", i, got, want)
		}
	}
}
