// Quickstart: build a tiny REVMAX instance by hand, run every algorithm,
// and print the winning recommendation schedule.
//
// The scenario: an electronics store over a 3-day horizon (k = 2 slots
// per user per day), two competing tablets (one going on sale on day 3),
// a pair of headphones, and three customers with different predicted
// interests and price sensitivities.
package main

import (
	"context"
	"fmt"

	revmax "repro"
)

func main() {
	const (
		alice = revmax.UserID(0)
		bob   = revmax.UserID(1)
		carol = revmax.UserID(2)

		tabletA    = revmax.ItemID(0) // premium tablet, on sale day 3
		tabletB    = revmax.ItemID(1) // budget tablet, same class
		headphones = revmax.ItemID(2)
	)

	in := revmax.NewInstance(3, 3, 3, 2)
	// class 0: tablets compete; class 1: headphones.
	in.SetItem(tabletA, 0, 0.7, 2)    // saturation 0.7, capacity 2 users
	in.SetItem(tabletB, 0, 0.7, 3)    //
	in.SetItem(headphones, 1, 0.5, 3) // repeats saturate faster

	// Price schedule: tablet A drops from 600 to 450 on day 3.
	for t := revmax.TimeStep(1); t <= 3; t++ {
		price := 600.0
		if t == 3 {
			price = 450
		}
		in.SetPrice(tabletA, t, price)
		in.SetPrice(tabletB, t, 350)
		in.SetPrice(headphones, t, 120)
	}

	// Primitive adoption probabilities q(u,i,t): who would buy what at
	// which price. Alice values the premium tablet highly; Bob only at
	// the sale price; Carol mostly wants headphones.
	type row struct {
		u revmax.UserID
		i revmax.ItemID
		q [3]float64 // per day
	}
	for _, r := range []row{
		{alice, tabletA, [3]float64{0.50, 0.50, 0.65}},
		{alice, tabletB, [3]float64{0.30, 0.30, 0.30}},
		{bob, tabletA, [3]float64{0.05, 0.05, 0.55}},
		{bob, tabletB, [3]float64{0.35, 0.35, 0.35}},
		{bob, headphones, [3]float64{0.25, 0.25, 0.25}},
		{carol, headphones, [3]float64{0.60, 0.60, 0.60}},
		{carol, tabletB, [3]float64{0.15, 0.15, 0.15}},
	} {
		for t := 0; t < 3; t++ {
			in.AddCandidate(r.u, r.i, revmax.TimeStep(t+1), r.q[t])
		}
	}
	in.FinishCandidates()
	if err := in.Validate(); err != nil {
		panic(err)
	}

	names := map[revmax.UserID]string{alice: "alice", bob: "bob", carol: "carol"}
	items := map[revmax.ItemID]string{tabletA: "tablet-A", tabletB: "tablet-B", headphones: "headphones"}

	fmt.Println("== RevMax quickstart ==")
	fmt.Printf("%d candidate triples over T=%d days\n\n", in.NumCandidates(), in.T)

	gg := solve(in, revmax.Options{Algorithm: "g-greedy"})
	sl := solve(in, revmax.Options{Algorithm: "sl-greedy"})
	rl := solve(in, revmax.Options{Algorithm: "rl-greedy", Perms: 6, Seed: 7})
	tre := solve(in, revmax.Options{Algorithm: "top-revenue"})

	fmt.Printf("G-Greedy revenue : %8.2f  (%d recommendations)\n", gg.Revenue, gg.Strategy.Len())
	fmt.Printf("SL-Greedy revenue: %8.2f\n", sl.Revenue)
	fmt.Printf("RL-Greedy revenue: %8.2f\n", rl.Revenue)
	fmt.Printf("TopRev baseline  : %8.2f\n\n", tre.Revenue)

	fmt.Println("G-Greedy schedule:")
	for t := revmax.TimeStep(1); t <= 3; t++ {
		fmt.Printf("  day %d:", t)
		for _, z := range gg.Strategy.Triples() {
			if z.T == t {
				fmt.Printf(" %s->%s ($%.0f, q=%.2f)",
					names[z.U], items[z.I], in.Price(z.I, t), in.Q(z.U, z.I, t))
			}
		}
		fmt.Println()
	}

	if opt, err := revmax.Solve(context.Background(), in, revmax.Options{Algorithm: "optimal"}); err == nil {
		fmt.Printf("\nexhaustive optimum: %.2f (greedy achieves %.1f%%)\n",
			opt.Revenue, 100*gg.Revenue/opt.Revenue)
	}
}

// solve runs the named algorithm; these instances are tiny and nothing
// cancels the context, so an error is a bug in the example.
func solve(in *revmax.Instance, opts revmax.Options) revmax.Result {
	res, err := revmax.Solve(context.Background(), in, opts)
	if err != nil {
		panic(err)
	}
	return res
}
