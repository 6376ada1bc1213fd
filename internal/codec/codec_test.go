package codec_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/revenue"
	"repro/internal/testgen"
)

func TestInstanceRoundTrip(t *testing.T) {
	rng := dist.NewRNG(1)
	for trial := 0; trial < 10; trial++ {
		in := testgen.Random(rng, testgen.Default())
		var buf bytes.Buffer
		if err := codec.EncodeInstance(&buf, in); err != nil {
			t.Fatal(err)
		}
		got, err := codec.DecodeInstance(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumUsers != in.NumUsers || got.NumItems() != in.NumItems() ||
			got.T != in.T || got.K != in.K {
			t.Fatal("shape not preserved")
		}
		if got.NumCandidates() != in.NumCandidates() {
			t.Fatalf("candidates %d != %d", got.NumCandidates(), in.NumCandidates())
		}
		for i := 0; i < in.NumItems(); i++ {
			id := model.ItemID(i)
			if got.Beta(id) != in.Beta(id) || got.Capacity(id) != in.Capacity(id) || got.Class(id) != in.Class(id) {
				t.Fatalf("item %d params not preserved", i)
			}
			for tt := 1; tt <= in.T; tt++ {
				if got.Price(id, model.TimeStep(tt)) != in.Price(id, model.TimeStep(tt)) {
					t.Fatalf("price (%d,%d) not preserved", i, tt)
				}
			}
		}
		// Behavioural equality: greedy on the decoded instance earns the
		// same revenue.
		a := core.GGreedy(in)
		b := core.GGreedy(got)
		if math.Abs(a.Revenue-b.Revenue) > 1e-9 {
			t.Fatalf("decoded instance behaves differently: %v vs %v", a.Revenue, b.Revenue)
		}
	}
}

func TestStrategyRoundTrip(t *testing.T) {
	rng := dist.NewRNG(2)
	in := testgen.Random(rng, testgen.Default())
	s := testgen.RandomValidStrategy(rng, in, 0.5)
	var buf bytes.Buffer
	if err := codec.EncodeStrategy(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := codec.DecodeStrategy(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() {
		t.Fatalf("len %d != %d", got.Len(), s.Len())
	}
	for _, z := range s.Triples() {
		if !got.Contains(z) {
			t.Fatalf("triple %v lost", z)
		}
	}
	if math.Abs(revenue.Revenue(in, got)-revenue.Revenue(in, s)) > 1e-12 {
		t.Fatal("revenue differs after round trip")
	}
}

func TestDecodeRejectsWrongVersion(t *testing.T) {
	if _, err := codec.DecodeInstance(strings.NewReader(`{"version":99}`)); err == nil {
		t.Fatal("wrong version accepted")
	}
	if _, err := codec.DecodeStrategy(strings.NewReader(`{"version":99}`)); err == nil {
		t.Fatal("wrong strategy version accepted")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := codec.DecodeInstance(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestDecodeRejectsBadShapes(t *testing.T) {
	// Item with wrong price vector length.
	bad := `{"version":1,"users":1,"horizon":2,"display":1,
		"items":[{"class":0,"beta":0.5,"capacity":1,"prices":[1.0]}],
		"candidates":[]}`
	if _, err := codec.DecodeInstance(strings.NewReader(bad)); err == nil {
		t.Fatal("short price vector accepted")
	}
	// Candidate list for unknown user.
	bad2 := `{"version":1,"users":1,"horizon":1,"display":1,
		"items":[{"class":0,"beta":0.5,"capacity":1,"prices":[1.0]}],
		"candidates":[{"user":7,"items":[{"item":0,"t":1,"q":0.5}]}]}`
	if _, err := codec.DecodeInstance(strings.NewReader(bad2)); err == nil {
		t.Fatal("unknown user accepted")
	}
}

func TestDecodeValidatesSemantics(t *testing.T) {
	// Beta outside [0,1] must be rejected by post-decode validation.
	bad := `{"version":1,"users":1,"horizon":1,"display":1,
		"items":[{"class":0,"beta":1.5,"capacity":1,"prices":[1.0]}],
		"candidates":[]}`
	if _, err := codec.DecodeInstance(strings.NewReader(bad)); err == nil {
		t.Fatal("invalid beta accepted")
	}
	// A candidate listed twice has no one q.
	dup := `{"version":1,"users":1,"horizon":1,"display":1,
		"items":[{"class":0,"beta":0.5,"capacity":1,"prices":[1.0]}],
		"candidates":[{"user":0,"items":[{"item":0,"t":1,"q":0.5},{"item":0,"t":1,"q":0.25}]}]}`
	if _, err := codec.DecodeInstance(strings.NewReader(dup)); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("repeated candidate: error %v, want one naming the repeat", err)
	}
}

func TestEmptyStrategyRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := codec.EncodeStrategy(&buf, model.NewStrategy()); err != nil {
		t.Fatal(err)
	}
	got, err := codec.DecodeStrategy(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatal("empty strategy gained triples")
	}
}
