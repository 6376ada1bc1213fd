package revmax_test

import (
	"context"
	"fmt"
	"strings"
	"time"

	revmax "repro"
)

// ExampleSolve runs the unified solver entry point on a tiny two-user
// catalog: the algorithm is named, the context bounds the run, and the
// result carries the chosen strategy with its expected revenue.
func ExampleSolve() {
	in := revmax.NewInstance(2, 2, 1, 1) // 2 users, 2 items, T=1, k=1
	in.SetItem(0, 0, 1, 2)               // item 0: class 0, no saturation, capacity 2
	in.SetItem(1, 1, 1, 2)
	in.SetPrice(0, 1, 40)
	in.SetPrice(1, 1, 10)
	in.AddCandidate(0, 0, 1, 0.5)  // user 0 adopts item 0 w.p. 0.5 → 20 expected
	in.AddCandidate(0, 1, 1, 0.9)  // ... but item 1 only yields 9
	in.AddCandidate(1, 1, 1, 0.25) // user 1: item 1 → 2.5 expected
	in.FinishCandidates()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := revmax.Solve(ctx, in, revmax.Options{Algorithm: "g-greedy"})
	if err != nil {
		panic(err)
	}
	fmt.Printf("revenue %.1f from %d recommendations\n", res.Revenue, res.Strategy.Len())
	for _, z := range res.Strategy.Triples() {
		fmt.Printf("recommend item %d to user %d at t=%d\n", z.I, z.U, z.T)
	}
	// Output:
	// revenue 22.5 from 2 recommendations
	// recommend item 0 to user 0 at t=1
	// recommend item 1 to user 1 at t=1
}

// ExampleList enumerates the registered algorithms — the names valid in
// Options.Algorithm, scenario declarations, and revmaxd's -algo flag.
func ExampleList() {
	fmt.Println(strings.Join(revmax.List(), "\n"))
	// Output:
	// g-greedy
	// g-greedy-no
	// g-greedy-staged
	// local-search
	// naive-greedy
	// optimal
	// rl-greedy
	// rl-greedy-parallel
	// rl-greedy-staged
	// sl-greedy
	// top-rating
	// top-revenue
}
