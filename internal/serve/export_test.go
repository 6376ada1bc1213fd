package serve

import (
	"math"

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
// the solver's CandIDs (as opposed to a Strategy round trip).
func (e *Engine) LivePlan() (PlanView, bool) {
	p := e.plan.Load()
	return viewOf(p), p.flat != nil
}

// StrategyRoutePlan rebuilds the live plan the long way round, from its
// triples alone: the residual instance from the applied feedback,
// revenue.Revenue on it, and buildPlan's triple → CandID lookups. Call
// on a flushed, quiet engine; the live plan's lazy strategy is not
// touched.
func (e *Engine) StrategyRoutePlan() (PlanView, error) {
	fb, err := e.Feedback()
	if err != nil {
		return PlanView{}, err
	}
	s := model.StrategyOf(e.plan.Load().planned()...)
	rev := revenue.Revenue(planner.Residual(e.in, fb), s)
	return viewOf(buildPlan(e.in, s, fb.Now, rev)), nil
}
