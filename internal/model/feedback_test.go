package model

import (
	"maps"
	"slices"
	"testing"
)

// feedbackOracle is the map form the serving engine kept per user before
// UserFeedback, with its apply logic copied verbatim: an exposure list
// per class, capped with drop-oldest eviction, and an adopted set.
type feedbackOracle struct {
	adopted   map[ClassID]bool
	exposures map[ClassID][]TimeStep
}

func newFeedbackOracle() *feedbackOracle {
	return &feedbackOracle{adopted: map[ClassID]bool{}, exposures: map[ClassID][]TimeStep{}}
}

func (o *feedbackOracle) apply(c ClassID, t TimeStep, adopted bool, limit int) (first bool, evicted TimeStep) {
	if ts := o.exposures[c]; limit > 0 && len(ts) >= limit {
		evicted = ts[0]
		copy(ts, ts[1:])
		ts[len(ts)-1] = t
	} else {
		o.exposures[c] = append(ts, t)
	}
	if adopted && !o.adopted[c] {
		o.adopted[c] = true
		first = true
	}
	return first, evicted
}

func (o *feedbackOracle) clone() *feedbackOracle {
	out := &feedbackOracle{adopted: maps.Clone(o.adopted), exposures: map[ClassID][]TimeStep{}}
	for c, ts := range o.exposures {
		out.exposures[c] = slices.Clone(ts)
	}
	return out
}

const fuzzClasses = 6

// requireMatches fails unless f holds exactly o's history, in strictly
// class-sorted slices.
func requireMatches(t *testing.T, what string, f *UserFeedback, o *feedbackOracle) {
	t.Helper()
	for k := 1; k < len(f.Adopted); k++ {
		if f.Adopted[k] <= f.Adopted[k-1] {
			t.Fatalf("%s: adopted classes not strictly ascending: %v", what, f.Adopted)
		}
	}
	for k := 1; k < len(f.Exposed); k++ {
		if f.Exposed[k].Class <= f.Exposed[k-1].Class {
			t.Fatalf("%s: exposed classes not strictly ascending: %v", what, f.Exposed)
		}
	}
	if len(f.Adopted) != len(o.adopted) || len(f.Exposed) != len(o.exposures) {
		t.Fatalf("%s: %d adopted / %d exposed classes, oracle %d / %d", what, len(f.Adopted), len(f.Exposed), len(o.adopted), len(o.exposures))
	}
	for c := ClassID(0); c < fuzzClasses; c++ {
		if f.HasAdopted(c) != o.adopted[c] {
			t.Fatalf("%s: class %d adopted %v, oracle %v", what, c, f.HasAdopted(c), o.adopted[c])
		}
		if !slices.Equal(f.Exposures(c), o.exposures[c]) {
			t.Fatalf("%s: class %d exposures %v, oracle %v", what, c, f.Exposures(c), o.exposures[c])
		}
	}
}

// FuzzUserFeedback applies one random Observe sequence to a UserFeedback
// and to the map oracle and requires equal lookups and reports after
// every step. The first byte picks the exposure cap (0: unbounded); each
// following byte is one observation (class, time, adoption). Midway the
// state is cloned: the clone must not move with the original, and
// DiffClasses between the two must name exactly the classes whose
// oracle history changed.
func FuzzUserFeedback(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0})          // three exposures on one class past a cap of 2
	f.Add([]byte{1, 0x41, 0x41, 0x01}) // cap 1: every repeat evicts; repeated adoption
	f.Add([]byte{3, 5, 3, 1, 4, 0, 2}) // classes out of order
	f.Add([]byte{0, 1, 1, 1, 1, 1, 1}) // unbounded
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		limit := int(data[0] % 5)
		var fb UserFeedback
		o := newFeedbackOracle()
		var mid UserFeedback
		var midO *feedbackOracle
		ops := data[1:]
		for k, b := range ops {
			if k == len(ops)/2 {
				mid, midO = fb.Clone(), o.clone()
			}
			c, ts, adopted := ClassID(b%fuzzClasses), TimeStep(1+(b>>3)%5), b&0x40 != 0
			first, evicted := fb.Observe(c, ts, adopted, limit)
			wantFirst, wantEvicted := o.apply(c, ts, adopted, limit)
			if first != wantFirst || evicted != wantEvicted {
				t.Fatalf("op %d: Observe(%d, %d, %v, %d) = (%v, %d), oracle (%v, %d)", k, c, ts, adopted, limit, first, evicted, wantFirst, wantEvicted)
			}
			requireMatches(t, "live", &fb, o)
		}
		if midO == nil {
			return
		}
		requireMatches(t, "clone", &mid, midO)
		var want []ClassID
		for c := ClassID(0); c < fuzzClasses; c++ {
			if midO.adopted[c] != o.adopted[c] || !slices.Equal(midO.exposures[c], o.exposures[c]) {
				want = append(want, c)
			}
		}
		if got := mid.DiffClasses(&fb, nil); !slices.Equal(got, want) {
			t.Fatalf("DiffClasses = %v, oracle %v", got, want)
		}
		if got := fb.DiffClasses(&mid, nil); !slices.Equal(got, want) {
			t.Fatalf("reversed DiffClasses = %v, oracle %v", got, want)
		}
	})
}

// TestCloneUsersIsolatesNeighbours: copies packed into shared backing
// arrays must grow without writing into the next user's copy.
func TestCloneUsersIsolatesNeighbours(t *testing.T) {
	var users [2]UserFeedback
	users[0].Observe(1, 1, true, 0)
	users[1].Observe(1, 2, true, 0)
	users[1].Observe(2, 3, false, 0)
	out := CloneUsers(users[:])
	out[0].Observe(1, 4, false, 0)
	out[0].Observe(0, 5, true, 0)
	if got := out[1].Exposures(1); !slices.Equal(got, []TimeStep{2}) {
		t.Fatalf("user 1's copied exposures %v after growing user 0's copy", got)
	}
	if !out[1].HasAdopted(1) || out[1].HasAdopted(0) || len(out[1].Adopted) != 1 {
		t.Fatalf("user 1's copied adoptions %v after growing user 0's copy", out[1].Adopted)
	}
	if got := users[0].Exposures(1); !slices.Equal(got, []TimeStep{1}) {
		t.Fatalf("original exposures %v after growing the copy", got)
	}
}
