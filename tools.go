package revmax

import (
	"io"

	"repro/internal/codec"
	"repro/internal/sim"
)

// Simulation facade — Monte-Carlo replay of a strategy against the
// adoption model (validates Rev(S) and measures revenue risk).
type (
	// SimOptions control a simulation run.
	SimOptions = sim.Options
	// SimOutcome summarizes the replications.
	SimOutcome = sim.Outcome
)

// Simulate replays strategy s against in's adoption model; with
// EnforceStock it also simulates inventory depletion (Definition 4's
// generative counterpart).
func Simulate(in *Instance, s *Strategy, opts SimOptions) SimOutcome {
	return sim.Simulate(in, s, opts)
}

// Persistence facade — versioned JSON for instances and strategies.

// EncodeInstance writes in to w as JSON.
func EncodeInstance(w io.Writer, in *Instance) error { return codec.EncodeInstance(w, in) }

// DecodeInstance reads and validates an instance from r.
func DecodeInstance(r io.Reader) (*Instance, error) { return codec.DecodeInstance(r) }

// EncodeStrategy writes s to w as JSON.
func EncodeStrategy(w io.Writer, s *Strategy) error { return codec.EncodeStrategy(w, s) }

// DecodeStrategy reads a strategy from r.
func DecodeStrategy(r io.Reader) (*Strategy, error) { return codec.DecodeStrategy(r) }
