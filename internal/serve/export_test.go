package serve

import (
	"math"
	"sort"

	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/revenue"
)

// ErrorStatus exposes errorStatus to the backend-axis HTTP tests.
var ErrorStatus = errorStatus

// PlanView is everything a serving plan answers lookups and stats from,
// in a form external tests can compare with reflect.DeepEqual.
type PlanView struct {
	PerUser     [][]planEntry
	RevenueBits uint64
	From        model.TimeStep
	Triples     int
}

func viewOf(p *plan) PlanView {
	return PlanView{PerUser: p.perUser, RevenueBits: math.Float64bits(p.revenue), From: p.plannedFrom, Triples: p.triples}
}

// LivePlan returns the live plan's view, and whether it was indexed from
// CandIDs.
func (e *Engine) LivePlan() (PlanView, bool) {
	p := e.plan.Load()
	return viewOf(p), p.flat != nil
}

// StrategyRoutePlan rebuilds the live plan the long way round, from its
// triples alone: the residual instance from the applied feedback,
// revenue.Revenue on it, and buildPlan's per-triple index. Call on a
// flushed, quiet engine; the live plan's lazy strategy is not touched.
func (e *Engine) StrategyRoutePlan() (PlanView, error) {
	fb, err := e.Feedback()
	if err != nil {
		return PlanView{}, err
	}
	s := model.StrategyOf(e.plan.Load().flat.Triples()...)
	rev := revenue.Revenue(planner.Residual(e.in, fb), s)
	return viewOf(buildPlan(e.in, s, fb.Now, rev)), nil
}

// buildPlan is the Strategy-route oracle for the serving index: it
// indexes s triple by triple, reading item parameters, primitive
// probabilities and prices through in's per-triple accessors, and sorts
// each user's entries by (t, item). It shares nothing with indexFlat.
func buildPlan(in *model.Instance, s *model.Strategy, from model.TimeStep, revenue float64) *plan {
	p := &plan{
		strat:       s,
		triples:     s.Len(),
		perUser:     make([][]planEntry, in.NumUsers),
		revenue:     revenue,
		plannedFrom: from,
	}
	for _, z := range s.Triples() {
		p.perUser[z.U] = append(p.perUser[z.U], planEntry{
			t:     z.T,
			item:  z.I,
			class: in.Class(z.I),
			beta:  in.Beta(z.I),
			q:     in.Q(z.U, z.I, z.T),
			price: in.Price(z.I, z.T),
		})
	}
	for u := range p.perUser {
		es := p.perUser[u]
		sort.Slice(es, func(a, b int) bool {
			if es[a].t != es[b].t {
				return es[a].t < es[b].t
			}
			return es[a].item < es[b].item
		})
	}
	return p
}
