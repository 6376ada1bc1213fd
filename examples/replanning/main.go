// Receding-horizon replanning: the production layer the paper's
// open-loop formulation invites. REVMAX plans all of [T] up front,
// pricing in the *expected* effect of earlier recommendations; a
// deployed system observes which users actually bought and can replan
// the remaining horizon — freed display slots go to fresh prospects,
// sold-out items disappear, saturation memory reflects real exposures.
//
// This example deploys the same catalog twice over many simulated
// market draws: once executing G-Greedy's fixed plan (open loop), once
// replanning with the Planner after every step (closed loop), and
// reports the realized-revenue gap.
package main

import (
	"context"
	"fmt"

	revmax "repro"
	"repro/internal/dist"
)

func main() {
	const (
		users  = 80
		items  = 6
		T      = 5
		trials = 60
	)
	rng := dist.NewRNG(123)

	in := revmax.NewInstance(users, items, T, 1)
	for i := 0; i < items; i++ {
		in.SetItem(revmax.ItemID(i), revmax.ClassID(i%3), 0.6, users/4)
		for t := revmax.TimeStep(1); t <= T; t++ {
			in.SetPrice(revmax.ItemID(i), t, 100+30*float64(i))
		}
	}
	for u := 0; u < users; u++ {
		for i := 0; i < items; i++ {
			q := rng.Uniform(0.15, 0.7)
			for t := revmax.TimeStep(1); t <= T; t++ {
				in.AddCandidate(revmax.UserID(u), revmax.ItemID(i), t, q)
			}
		}
	}
	in.FinishCandidates()

	plan, err := revmax.Solve(context.Background(), in, revmax.Options{Algorithm: "g-greedy"})
	if err != nil {
		panic(err)
	}
	fmt.Println("== Receding-horizon replanning vs fixed plan ==")
	fmt.Printf("open-loop plan: %d recommendations, promised Rev(S) = %.2f\n\n", plan.Strategy.Len(), plan.Revenue)

	var closed, open float64
	for trial := 0; trial < trials; trial++ {
		seed := uint64(1000 + trial)
		// Closed loop: replan each step with feedback.
		p, err := revmax.NewNamedPlanner(in, revmax.Options{Algorithm: "g-greedy"})
		if err != nil {
			panic(err)
		}
		out, err := p.Rollout(dist.NewRNG(seed))
		if err != nil {
			panic(err)
		}
		closed += out.Revenue
		// Open loop: simulate the fixed plan against the same model.
		sim := revmax.Simulate(in, plan.Strategy, revmax.SimOptions{Runs: 1, Seed: seed, EnforceStock: true})
		open += sim.MeanRevenue
	}
	closed /= trials
	open /= trials

	fmt.Printf("closed loop (replan each step): %9.2f mean realized revenue\n", closed)
	fmt.Printf("open loop (fixed plan)        : %9.2f mean realized revenue\n", open)
	fmt.Printf("feedback lift                 : %+8.1f%%\n", 100*(closed/open-1))
}
