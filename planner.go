package revmax

import "repro/internal/planner"

// Receding-horizon planning facade — execute a horizon step by step,
// fold realized adoptions back into the model, replan the rest.
type (
	// Planner executes a horizon with adoption feedback.
	Planner = planner.Planner
	// PlannerAlgorithm plans a strategy for a (residual) instance.
	PlannerAlgorithm = planner.Algorithm
	// Recommendation is one issued recommendation with its conditional
	// adoption probability.
	Recommendation = planner.Recommendation
	// RolloutResult summarizes a simulated closed-loop deployment.
	RolloutResult = planner.RolloutResult
)

// NewPlanner returns a receding-horizon planner over in; algo is invoked
// on the residual instance before every step (NewNamedPlanner resolves
// it from the solver registry instead).
func NewPlanner(in *Instance, algo PlannerAlgorithm) *Planner {
	return planner.New(in, algo)
}

// NewNamedPlanner returns a receding-horizon planner over in whose
// replanning algorithm is resolved from the solver registry:
// opts.Algorithm names it, the remaining options tune it. An unknown
// name fails here, not mid-replan.
func NewNamedPlanner(in *Instance, opts Options) (*Planner, error) {
	return planner.NewNamed(in, opts)
}
