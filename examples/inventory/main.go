// Inventory-constrained recommendations: the capacity constraint (§3.1)
// in action. A hot limited-stock item can be recommended to only qᵢ
// distinct users; the recommender must decide *which* users get the
// scarce slots and what everyone else sees instead.
//
// This example also demonstrates the R-REVMAX relaxation (§4.2): pushing
// the capacity into the objective via the Poisson-binomial factor
// B_S(i,t) and comparing its effective-revenue estimate against the
// hard-constrained strategy.
package main

import (
	"context"
	"fmt"
	"sort"

	revmax "repro"
	"repro/internal/dist"
)

func main() {
	const (
		users   = 60
		T       = 3
		hotCap  = 5 // only 5 units of the hot item
		hotItem = revmax.ItemID(0)
		altItem = revmax.ItemID(1) // same class, plentiful
	)
	rng := dist.NewRNG(7)

	in := revmax.NewInstance(users, 2, T, 1)
	in.SetItem(hotItem, 0, 0.8, hotCap)
	in.SetItem(altItem, 0, 0.8, users)
	for t := revmax.TimeStep(1); t <= T; t++ {
		in.SetPrice(hotItem, t, 900)
		in.SetPrice(altItem, t, 250)
	}
	// Everyone wants the hot item (varying intensity); the alternative is
	// a consolation with decent conversion.
	for u := 0; u < users; u++ {
		hotQ := 0.2 + 0.7*rng.Float64()
		altQ := 0.3 + 0.3*rng.Float64()
		for t := revmax.TimeStep(1); t <= T; t++ {
			in.AddCandidate(revmax.UserID(u), hotItem, t, hotQ)
			in.AddCandidate(revmax.UserID(u), altItem, t, altQ)
		}
	}
	in.FinishCandidates()

	gg, err := revmax.Solve(context.Background(), in, revmax.Options{Algorithm: "g-greedy"})
	if err != nil {
		panic(err)
	}
	if err := in.CheckValid(gg.Strategy); err != nil {
		panic(err)
	}

	// Who won the scarce slots?
	hotUsers := map[revmax.UserID]bool{}
	altUsers := map[revmax.UserID]bool{}
	for _, z := range gg.Strategy.Triples() {
		if z.I == hotItem {
			hotUsers[z.U] = true
		} else {
			altUsers[z.U] = true
		}
	}
	fmt.Println("== Inventory-constrained recommendation ==")
	fmt.Printf("hot item: capacity %d, price $900; alternative: unlimited, $250\n\n", hotCap)
	fmt.Printf("G-Greedy revenue        : %9.2f\n", gg.Revenue)
	fmt.Printf("users shown hot item    : %d (capacity %d)\n", len(hotUsers), hotCap)
	fmt.Printf("users shown alternative : %d\n\n", len(altUsers))

	// The winners should be the highest-q users: verify by ranking.
	type uq struct {
		u revmax.UserID
		q float64
	}
	ranked := make([]uq, users)
	for u := 0; u < users; u++ {
		ranked[u] = uq{revmax.UserID(u), in.Q(revmax.UserID(u), hotItem, 1)}
	}
	sort.Slice(ranked, func(a, b int) bool { return ranked[a].q > ranked[b].q })
	topK := 0
	for _, r := range ranked[:hotCap] {
		if hotUsers[r.u] {
			topK++
		}
	}
	fmt.Printf("scarce slots given to top-%d hot-item prospects: %d/%d\n\n", hotCap, topK, hotCap)

	// R-REVMAX view (§4.2): the relaxation drops the hard capacity
	// constraint and instead discounts each recommendation by the
	// probability B_S(i,t) that stock is already gone (Definition 4).
	// Build a relaxed strategy that over-books the hot item to twice its
	// capacity and compare the naive revenue (which pretends stock is
	// infinite) with the effective revenue.
	overbook := hotCap + 2
	relaxed := revmax.NewStrategy()
	for _, r := range ranked[:overbook] {
		relaxed.Add(revmax.Triple{U: r.u, I: hotItem, T: 1})
	}
	naive := revmax.Revenue(in, relaxed)
	eff := revmax.EffectiveRevenue(in, relaxed, revmax.ExactOracle{})
	fmt.Printf("over-booked strategy (%d users on %d units):\n", overbook, hotCap)
	fmt.Printf("  naive revenue (ignores stock-outs): %9.2f\n", naive)
	fmt.Printf("  effective R-REVMAX revenue        : %9.2f\n", eff)
	fmt.Printf("  stock-out discount                : %8.1f%%\n", 100*(1-eff/naive))
	fmt.Println("\nDefinition 4 discounts each recommendation by the probability that")
	fmt.Println("the item's capacity was already consumed by other recommended users,")
	fmt.Println("which is what lets R-REVMAX trade the non-matroid capacity")
	fmt.Println("constraint for a pure partition-matroid problem.")
}
