package model_test

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/testgen"
)

// TestUpperBoundKeysMatchScalar pins the bulk key kernel to the scalar
// p·q computation, bit for bit.
func TestUpperBoundKeysMatchScalar(t *testing.T) {
	in := testgen.Random(dist.NewRNG(77), testgen.Params{
		Users: 30, Items: 9, Classes: 4, T: 5, K: 2,
		MaxCap: 4, CandProb: 0.4, MinPrice: 1, MaxPrice: 80,
	})
	n := in.NumCands()
	rng := dist.NewRNG(3)
	for trial := 0; trial < 50; trial++ {
		a := model.CandID(rng.Intn(n + 1))
		b := model.CandID(rng.Intn(n + 1))
		if a > b {
			a, b = b, a
		}
		dst := make([]float64, b-a)
		in.UpperBoundKeys(a, b, dst)
		for k := range dst {
			c := in.CandAt(a + model.CandID(k))
			if want := in.Price(c.I, c.T) * c.Q; dst[k] != want {
				t.Fatalf("trial %d: key[%d] = %v, want %v", trial, k, dst[k], want)
			}
		}
	}
}
