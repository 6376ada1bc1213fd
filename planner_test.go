package revmax_test

import (
	"bytes"
	"math"
	"testing"

	revmax "repro"
	"repro/internal/dist"
)

func TestFacadePlannerRollout(t *testing.T) {
	in := buildIntro()
	p, err := revmax.NewNamedPlanner(in, revmax.Options{Algorithm: "g-greedy"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Rollout(dist.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if out.Issued == 0 {
		t.Fatal("planner issued nothing on a profitable instance")
	}
	if out.Revenue < 0 || out.Adoptions > out.Issued {
		t.Fatalf("implausible rollout: %+v", out)
	}
	if !p.Done() {
		t.Fatal("rollout did not exhaust the horizon")
	}
}

func TestFacadePlannerStepwise(t *testing.T) {
	in := buildIntro()
	p := revmax.NewPlanner(in, func(res *revmax.Instance) *revmax.Strategy {
		return solve(t, res, revmax.Options{Algorithm: "g-greedy"}).Strategy
	})
	recs, err := p.PlanStep()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Observe(recs, nil); err != nil {
		t.Fatal(err)
	}
	if p.Now() != 2 {
		t.Fatalf("Now = %d after one step", p.Now())
	}
}

func TestFacadeCodecRoundTrip(t *testing.T) {
	in := buildIntro()
	var buf bytes.Buffer
	if err := revmax.EncodeInstance(&buf, in); err != nil {
		t.Fatal(err)
	}
	back, err := revmax.DecodeInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	gg := revmax.Options{Algorithm: "g-greedy"}
	if solve(t, back, gg).Revenue != solve(t, in, gg).Revenue {
		t.Fatal("round-tripped instance behaves differently")
	}
	s := solve(t, in, gg).Strategy
	buf.Reset()
	if err := revmax.EncodeStrategy(&buf, s); err != nil {
		t.Fatal(err)
	}
	s2, err := revmax.DecodeStrategy(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != s.Len() {
		t.Fatal("strategy round trip lost triples")
	}
}

func TestFacadeSimulateMatchesRevenue(t *testing.T) {
	in := buildIntro()
	s := solve(t, in, revmax.Options{Algorithm: "g-greedy"}).Strategy
	out := revmax.Simulate(in, s, revmax.SimOptions{Runs: 60000, Seed: 3})
	want := revmax.Revenue(in, s)
	tol := 4*out.StdDev/math.Sqrt(float64(out.Runs)) + 1e-9
	if math.Abs(out.MeanRevenue-want) > tol {
		t.Fatalf("simulated %v vs Rev(S) %v", out.MeanRevenue, want)
	}
}

func TestFacadeParallelRLGreedy(t *testing.T) {
	in := buildIntro()
	seq := solve(t, in, revmax.Options{Algorithm: "rl-greedy", Perms: 6, Seed: 5})
	par := solve(t, in, revmax.Options{Algorithm: "rl-greedy-parallel", Perms: 6, Seed: 5, Workers: 3})
	if seq.Revenue != par.Revenue {
		t.Fatalf("parallel %v != sequential %v", par.Revenue, seq.Revenue)
	}
}
