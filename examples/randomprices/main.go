// Random prices (§7): when the price prediction model yields
// distributions instead of exact values, the expected revenue of a
// strategy can be approximated distribution-independently with a
// second-order Taylor expansion around the mean price vector.
//
// This example builds a catalog with uncertain future prices, plans a
// strategy with G-Greedy on the means, and compares three estimators of
// the strategy's true expected revenue: the naive mean-price proxy, the
// Taylor approximation, and a Monte-Carlo ground truth.
package main

import (
	"context"
	"fmt"
	"math"

	revmax "repro"
	"repro/internal/dist"
	"repro/internal/kde"
)

func main() {
	const (
		users = 80
		items = 10
		T     = 5
	)
	rng := dist.NewRNG(99)

	in := revmax.NewInstance(users, items, T, 2)
	valuations := make([]kde.GaussianProxy, items)
	for i := 0; i < items; i++ {
		base := rng.Uniform(50, 400)
		in.SetItem(revmax.ItemID(i), revmax.ClassID(i%4), 0.7, users/3)
		valuations[i] = kde.GaussianProxy{Mu: base * 1.2, Sigma: base * 0.3}
		for t := revmax.TimeStep(1); int(t) <= T; t++ {
			in.SetPrice(revmax.ItemID(i), t, base*rng.Uniform(0.9, 1.1))
		}
	}
	// Price-dependent adoption: survival of the valuation distribution,
	// scaled by per-user interest.
	interest := make([][]float64, users)
	for u := range interest {
		interest[u] = make([]float64, items)
		for i := range interest[u] {
			interest[u][i] = rng.Float64()
		}
	}
	adopt := func(u revmax.UserID, i revmax.ItemID, t revmax.TimeStep, price float64) float64 {
		v := valuations[i].Survival(price) * interest[u][i]
		return math.Max(0, math.Min(1, v))
	}
	for u := 0; u < users; u++ {
		for i := 0; i < items; i++ {
			if interest[u][i] < 0.3 {
				continue // not a candidate
			}
			for t := revmax.TimeStep(1); int(t) <= T; t++ {
				in.AddCandidate(revmax.UserID(u), revmax.ItemID(i), t,
					adopt(revmax.UserID(u), revmax.ItemID(i), t, in.Price(revmax.ItemID(i), t)))
			}
		}
	}
	in.FinishCandidates()

	plan, err := revmax.Solve(context.Background(), in, revmax.Options{Algorithm: "g-greedy"})
	if err != nil {
		panic(err)
	}
	strategy := plan.Strategy
	fmt.Println("== Random prices: Taylor-approximate expected revenue ==")
	fmt.Printf("strategy: %d recommendations planned on mean prices\n\n", strategy.Len())

	// Prices are uncertain: sd = 12% of the mean.
	m := &revmax.RandomPriceModel{
		In:    in,
		Adopt: revmax.AdoptFn(adopt),
		Var: func(i revmax.ItemID, t revmax.TimeStep) float64 {
			sd := 0.12 * in.Price(i, t)
			return sd * sd
		},
	}
	truth := m.MonteCarloRevenue(strategy, 40000, 1)
	taylor := m.TaylorRevenue(strategy)
	proxy := m.MeanProxyRevenue(strategy)

	fmt.Printf("Monte-Carlo ground truth : %10.2f\n", truth)
	fmt.Printf("Taylor (2nd order)       : %10.2f  (err %+.2f%%)\n", taylor, 100*(taylor-truth)/truth)
	fmt.Printf("mean-price proxy         : %10.2f  (err %+.2f%%)\n", proxy, 100*(proxy-truth)/truth)
	fmt.Println("\nThe proxy ignores price curvature entirely; the Taylor estimate")
	fmt.Println("adds the variance/covariance correction of Eq. (8) and tracks the")
	fmt.Println("sampled truth more closely as price uncertainty grows.")
}
