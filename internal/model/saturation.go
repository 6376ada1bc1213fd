package model

import "math"

// SaturationMemory returns the saturation memory of Eq. 1 accrued by
// the given exposure times at time t: Σ 1/(t−τ) over exposures τ < t.
// It is the single implementation shared by open-loop planning,
// step-wise replanning, online serving, and incremental solver
// sessions — change the memory kernel here and every consumer moves
// together. (The kernel lives in model so core can use it without
// importing planner.)
func SaturationMemory(exposures []TimeStep, t TimeStep) float64 {
	mem := 0.0
	for _, tau := range exposures {
		if tau < t {
			mem += 1 / float64(t-tau)
		}
	}
	return mem
}

// Discount applies the saturation discount β^mem to a primitive
// adoption probability.
func Discount(q, beta, mem float64) float64 {
	if mem > 0 {
		return q * math.Pow(beta, mem)
	}
	return q
}

// SetCandQ overwrites candidate id's primitive adoption probability in
// place. After FinishCandidates the per-user candidate slices alias the
// flat index, so the single write is visible through UserCandidates,
// CandAt, and Q alike. Incremental solver sessions use this to fold
// saturation/adoption deltas into their private clone; callers mutating
// a shared instance are responsible for their own synchronization.
func (in *Instance) SetCandQ(id CandID, q float64) {
	in.ix.flat[id].Q = q
}
