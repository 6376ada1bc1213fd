package planner

import (
	"context"

	"repro/internal/model"
	"repro/internal/solver"
)

// Named adapts a registry algorithm to the Algorithm func type: the
// name in opts.Algorithm (empty means solver.DefaultAlgorithm) is
// resolved and its options validated once, up front — a typo or a
// missing required option (top-rating without a Rating predictor)
// fails at construction, not mid-replan. Each invocation then runs the
// resolved algorithm with the remaining options. The adapter swallows
// run-time errors by returning an empty strategy: the Algorithm
// signature predates error returns, and after the up-front validation
// only per-instance failures remain (e.g. "optimal" on an instance
// beyond its exhaustive limit, which its docs already restrict to tiny
// validation inputs); an empty plan is the safe degradation for a
// replanning loop.
func Named(opts solver.Options) (Algorithm, error) {
	if err := solver.ValidateOptions(opts); err != nil {
		return nil, err
	}
	return func(in *model.Instance) *model.Strategy {
		// Dispatch through solver.Solve so the documented Options
		// defaults (Perms, epsilon, ...) apply exactly as they do on the
		// public entry point.
		res, err := solver.Solve(context.Background(), in, opts)
		if err != nil || res.Strategy == nil {
			return model.NewStrategy()
		}
		return res.Strategy
	}, nil
}

// NewNamed returns a planner over in whose replanning algorithm is
// resolved from the solver registry via Named.
func NewNamed(in *model.Instance, opts solver.Options) (*Planner, error) {
	algo, err := Named(opts)
	if err != nil {
		return nil, err
	}
	return New(in, algo), nil
}
