package cluster

import (
	"fmt"

	"repro/internal/model"
)

// The partition rule is modular striping: user u lives on shard
// u mod N with dense local ID u div N, so both directions are closed
// form (global = local·N + k) and no routing table exists anywhere —
// the router, the plan slicer, the feedback merger, and recovery all
// derive ownership from arithmetic. Striding (rather than contiguous
// ranges) also balances shards under the common dataset layout where
// adjacent user IDs have correlated candidate counts.

// shardOf returns the owning shard of global user u.
func shardOf(u model.UserID, n int) int { return int(u) % n }

// localID returns u's dense per-shard user ID.
func localID(u model.UserID, n int) model.UserID { return model.UserID(int(u) / n) }

// globalID inverts (shard, local) back to the global user ID.
func globalID(k int, lu model.UserID, n int) model.UserID { return model.UserID(int(lu)*n + k) }

// shardUsers is the number of users shard k owns out of total.
func shardUsers(total, n, k int) int { return (total - k + n - 1) / n }

// subInstance restricts g to shard k's users under the striping rule:
// the full item catalog (classes, betas, capacities, prices) with
// exactly the candidates of users u ≡ k (mod n), re-keyed to local IDs.
// Every candidate of the global instance survives in exactly one
// sub-instance, so a strategy sliced by owner always lands on
// candidates of the slice's engine.
func subInstance(g *model.Instance, n, k int) *model.Instance {
	users := shardUsers(g.NumUsers, n, k)
	sub := model.NewInstance(users, g.NumItems(), g.T, g.K)
	for i := 0; i < g.NumItems(); i++ {
		it := model.ItemID(i)
		sub.SetItem(it, g.Class(it), g.Beta(it), g.Capacity(it))
		for t := 1; t <= g.T; t++ {
			sub.SetPrice(it, model.TimeStep(t), g.Price(it, model.TimeStep(t)))
		}
	}
	for lu := 0; lu < users; lu++ {
		gu := globalID(k, model.UserID(lu), n)
		for _, cand := range g.UserCandidates(gu) {
			sub.AddCandidate(model.UserID(lu), cand.I, cand.T, cand.Q)
		}
	}
	sub.FinishCandidates()
	return sub
}

// assembleGlobal inverts subInstance: it rebuilds the cluster-wide
// instance from the per-shard instances the engines recovered from
// their snapshots. Item parameters and prices come from shard 0 —
// every shard replays the same exogenous price rescales through its
// own WAL, so the tables agree — and each shard contributes its users'
// candidates at their global IDs.
func assembleGlobal(subs []*model.Instance) (*model.Instance, error) {
	n := len(subs)
	base := subs[0]
	users := 0
	for k, sub := range subs {
		if sub.NumItems() != base.NumItems() || sub.T != base.T || sub.K != base.K {
			return nil, fmt.Errorf("cluster: shard %d instance shape (%d items, T=%d, K=%d) disagrees with shard 0 (%d items, T=%d, K=%d)",
				k, sub.NumItems(), sub.T, sub.K, base.NumItems(), base.T, base.K)
		}
		users += sub.NumUsers
	}
	for k, sub := range subs {
		if sub.NumUsers != shardUsers(users, n, k) {
			return nil, fmt.Errorf("cluster: shard %d recovered %d users, want %d of %d under %d-way striping",
				k, sub.NumUsers, shardUsers(users, n, k), users, n)
		}
	}
	g := model.NewInstance(users, base.NumItems(), base.T, base.K)
	for i := 0; i < base.NumItems(); i++ {
		it := model.ItemID(i)
		g.SetItem(it, base.Class(it), base.Beta(it), base.Capacity(it))
		for t := 1; t <= base.T; t++ {
			g.SetPrice(it, model.TimeStep(t), base.Price(it, model.TimeStep(t)))
		}
	}
	for k, sub := range subs {
		for lu := 0; lu < sub.NumUsers; lu++ {
			gu := globalID(k, model.UserID(lu), n)
			for _, cand := range sub.UserCandidates(model.UserID(lu)) {
				g.AddCandidate(gu, cand.I, cand.T, cand.Q)
			}
		}
	}
	g.FinishCandidates()
	return g, nil
}

// candOffsets returns, per global user u of g, the distance from u's
// CandIDs in g to the same candidates' CandIDs in its shard's
// subInstance: candidates are numbered user by user in canonical order,
// and a shard's local users are its global users in the same order, so
// the shard's span of u starts after the candidates of the shard's
// earlier users.
func candOffsets(g *model.Instance, n int) []model.CandID {
	off := make([]model.CandID, g.NumUsers)
	next := make([]model.CandID, n)
	for u := range off {
		lo, hi := g.UserCandSpan(model.UserID(u))
		k := shardOf(model.UserID(u), n)
		off[u] = next[k] - lo
		next[k] += hi - lo
	}
	return off
}
