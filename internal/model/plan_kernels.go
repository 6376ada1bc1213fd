package model

// UpperBoundKeys fills dst[k] with the saturation-free revenue bound
// p(i,t)·q for the candidates lo+k in [lo, hi) — the branch-free bulk
// kernel behind heap-key initialization. dst must have length hi-lo.
// The bound is computed with the same operation order as the
// evaluator's empty-group fast path, so for an empty strategy the keys
// are bit-identical to exact marginal gains.
func (in *Instance) UpperBoundKeys(lo, hi CandID, dst []float64) {
	cs := in.ix.flat[lo:hi]
	if len(cs) == 0 {
		return
	}
	_ = dst[len(cs)-1]
	for k := range cs {
		c := &cs[k]
		dst[k] = in.prices[c.I][c.T-1] * c.Q
	}
}
