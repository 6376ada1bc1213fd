// Package planner provides a receding-horizon controller on top of the
// REVMAX algorithms: execute one time step of a planned strategy,
// observe which users actually adopted, fold those observations back
// into the model (adopters leave their item's competition class; stock
// is consumed), and replan the remaining horizon.
//
// The paper plans open-loop: a strategy for all of [T] is fixed up
// front, and the competition/saturation products price in the *expected*
// effect of earlier recommendations. A deployed system sees realized
// adoptions and can do strictly better by replanning — this package
// quantifies that gap (see the closed-vs-open-loop test and the
// examples/replanning demo).
package planner

import (
	"errors"
	"sort"

	"repro/internal/dist"
	"repro/internal/model"
)

// Algorithm plans a strategy for an instance; any core algorithm with
// this shape fits (GGreedy, SLGreedy, a staged variant, ...).
type Algorithm func(in *model.Instance) *model.Strategy

// Planner executes a horizon step by step with feedback.
type Planner struct {
	in   *model.Instance
	algo Algorithm

	// users[u] is user u's observed history: adopted classes and
	// (unbounded) exposure times per class.
	users []model.UserFeedback
	// stock is the remaining capacity per item.
	stock []int

	now model.TimeStep
}

// New returns a planner over in using algo for (re)planning.
func New(in *model.Instance, algo Algorithm) *Planner {
	p := &Planner{
		in:    in,
		algo:  algo,
		users: make([]model.UserFeedback, in.NumUsers),
		stock: make([]int, in.NumItems()),
		now:   1,
	}
	for i := range p.stock {
		p.stock[i] = in.Capacity(model.ItemID(i))
	}
	return p
}

// Now returns the next time step to execute (1-based).
func (p *Planner) Now() model.TimeStep { return p.now }

// Done reports whether the horizon is exhausted.
func (p *Planner) Done() bool { return int(p.now) > p.in.T }

// Recommendation is one recommendation issued for the current step.
type Recommendation struct {
	Triple model.Triple
	// Prob is the conditional adoption probability given everything the
	// planner has observed: saturation memory from actual exposures, and
	// zero if the user already adopted from the class.
	Prob float64
}

// PlanStep plans the remainder of the horizon with the configured
// algorithm — conditioned on all observations so far — and returns the
// recommendations for the current time step. It does not advance time;
// call Observe with the realized adoptions to advance.
func (p *Planner) PlanStep() ([]Recommendation, error) {
	if p.Done() {
		return nil, errors.New("planner: horizon exhausted")
	}
	residual := p.residualInstance()
	strategy := p.algo(residual)
	var out []Recommendation
	for _, z := range strategy.Triples() {
		if z.T != p.now {
			continue
		}
		out = append(out, Recommendation{Triple: z, Prob: p.conditionalProb(z)})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Triple.Less(out[b].Triple) })
	return out, nil
}

// Observe records the realized outcome of the current step's
// recommendations and advances the clock. adopted lists the triples that
// converted; every recommendation issued (adopted or not) should be in
// issued so saturation memory accrues.
func (p *Planner) Observe(issued []Recommendation, adopted []model.Triple) error {
	if p.Done() {
		return errors.New("planner: horizon exhausted")
	}
	adoptedSet := make(map[model.Triple]bool, len(adopted))
	for _, z := range adopted {
		if z.T != p.now {
			return errors.New("planner: adoption reported for a different time step")
		}
		adoptedSet[z] = true
	}
	for _, rec := range issued {
		z := rec.Triple
		if z.T != p.now {
			return errors.New("planner: issued recommendation for a different time step")
		}
		p.users[z.U].Observe(p.in.Class(z.I), z.T, adoptedSet[z], 0)
		if adoptedSet[z] && p.stock[z.I] > 0 {
			p.stock[z.I]--
		}
	}
	p.now++
	return nil
}

// SetStock overrides item i's remaining stock — an exogenous inventory
// event (mid-horizon shock, restock) observed between steps, as opposed
// to adoption-driven depletion which Observe applies itself. The next
// PlanStep replans against the new stock. Negative n clamps to zero.
func (p *Planner) SetStock(i model.ItemID, n int) {
	if n < 0 {
		n = 0
	}
	p.stock[i] = n
}

// conditionalProb is the adoption probability of z given observations:
// primitive q, discounted by saturation from *realized* exposures, and 0
// if the user already bought from the class or stock is gone.
func (p *Planner) conditionalProb(z model.Triple) float64 {
	c, f := p.in.Class(z.I), &p.users[z.U]
	if f.HasAdopted(c) || p.stock[z.I] <= 0 {
		return 0
	}
	q := p.in.Q(z.U, z.I, z.T)
	return model.Discount(q, p.in.Beta(z.I), model.SaturationMemory(f.Exposures(c), z.T))
}

// Feedback returns a deep copy of the planner's accumulated
// observations in the shape Residual consumes, frozen at the current
// step: later Observe calls do not leak into the returned value.
func (p *Planner) Feedback() Feedback {
	return Feedback{Users: model.CloneUsers(p.users), Stock: append([]int(nil), p.stock...), Now: p.now}
}

// residualInstance builds the remaining-horizon instance conditioned on
// everything observed so far; see Residual for the construction. It
// hands Residual the live state directly (no copy): Residual only reads,
// and the planner is single-threaded.
func (p *Planner) residualInstance() *model.Instance {
	return Residual(p.in, Feedback{Users: p.users, Stock: p.stock, Now: p.now})
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// RolloutResult summarizes one simulated deployment.
type RolloutResult struct {
	Revenue   float64
	Adoptions int
	Issued    int
}

// Rollout simulates a full deployment: at each step, plan, issue, draw
// adoptions from the conditional probabilities, observe, repeat. The
// rng drives the adoption coins; the result is one sample of realized
// revenue under closed-loop control.
func (p *Planner) Rollout(rng *dist.RNG) (RolloutResult, error) {
	var out RolloutResult
	for !p.Done() {
		recs, err := p.PlanStep()
		if err != nil {
			return out, err
		}
		var adopted []model.Triple
		taken := make(map[model.ItemID]int)
		for _, rec := range recs {
			out.Issued++
			i := rec.Triple.I
			if rec.Prob > 0 && rng.Float64() < rec.Prob && p.stockOf(i)-taken[i] > 0 {
				taken[i]++
				adopted = append(adopted, rec.Triple)
				out.Adoptions++
				out.Revenue += p.in.Price(i, rec.Triple.T)
			}
		}
		if err := p.Observe(recs, adopted); err != nil {
			return out, err
		}
	}
	return out, nil
}

func (p *Planner) stockOf(i model.ItemID) int { return p.stock[i] }
