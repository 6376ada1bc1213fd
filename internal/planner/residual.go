package planner

import (
	"repro/internal/model"
)

// Feedback captures everything a deployment has observed so far, in the
// exact shape a replan needs to condition on: each user's history
// (adopted classes and exposure times), how much stock every item has
// left, and the first time step that still lies in the future. The zero
// value means no observations, full initial capacity, from the start.
//
// Feedback is the seam between this package and online serving layers
// (internal/serve): the Planner accumulates one internally during
// step-wise execution, while a serving engine keeps the same per-user
// form in its lock-striped store and hands a copy to Residual when it
// replans.
type Feedback struct {
	// Users[u] is user u's history: the classes u already bought from
	// (further recommendations there are pointless, §3.1 competition) and
	// u's realized exposure times per class (the saturation memory of
	// Eq. 1). Dense by UserID; nil means no observations.
	Users []model.UserFeedback
	// Stock[i] is the remaining capacity of item i. nil means untouched
	// initial capacities.
	Stock []int
	// Now is the first unexecuted time step; candidates before it are
	// history and excluded from the residual instance.
	Now model.TimeStep
}

// Residual builds the remaining-horizon instance induced by fb on in:
// candidates at t ≥ fb.Now, users who adopted from a class lose that
// class's candidates, depleted items lose all candidates, capacities
// shrink to remaining stock, and primitive probabilities carry the
// saturation memory of realized exposures (folded in so the planning
// model stays Definition-1 consistent for the residual horizon).
//
// The construction is deterministic: users and candidates are visited in
// canonical order, so equal (in, fb) inputs yield equal instances — the
// property serving-layer determinism tests rely on.
func Residual(in *model.Instance, fb Feedback) *model.Instance {
	now := fb.Now
	if now < 1 {
		now = 1
	}
	res := model.NewInstance(in.NumUsers, in.NumItems(), in.T, in.K)
	for i := 0; i < in.NumItems(); i++ {
		id := model.ItemID(i)
		cap := in.Capacity(id)
		if fb.Stock != nil {
			cap = maxInt(fb.Stock[i], 0)
		}
		res.SetItem(id, in.Class(id), in.Beta(id), cap)
		for t := 1; t <= in.T; t++ {
			res.SetPrice(id, model.TimeStep(t), in.Price(id, model.TimeStep(t)))
		}
	}
	for u := 0; u < in.NumUsers; u++ {
		uid := model.UserID(u)
		var f model.UserFeedback
		if fb.Users != nil {
			f = fb.Users[u]
		}
		for _, cand := range in.UserCandidates(uid) {
			if cand.T < now {
				continue
			}
			c := in.Class(cand.I)
			if f.HasAdopted(c) {
				continue
			}
			if fb.Stock != nil && fb.Stock[cand.I] <= 0 {
				continue
			}
			// Fold realized-exposure memory into the primitive q so the
			// residual plan's saturation starts from observed history.
			q := model.Discount(cand.Q, in.Beta(cand.I), model.SaturationMemory(f.Exposures(c), cand.T))
			if q > 0 {
				res.AddCandidate(uid, cand.I, cand.T, q)
			}
		}
	}
	res.FinishCandidates()
	return res
}
