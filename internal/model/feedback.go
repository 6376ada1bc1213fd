package model

import (
	"cmp"
	"slices"
)

// MaxExposuresPerClass bounds each (user, class) exposure list a
// long-running deployment keeps: Observe evicts the oldest exposure once
// the cap is reached. Old exposures contribute only 1/(t−τ) memory each,
// so the eviction error is tiny, while the bound keeps lookups, replans
// and snapshots O(1) per user-class under unbounded feedback. Serving
// engines, cluster coordinators and the incremental sessions they feed
// all apply this one cap, so their saturation memories agree.
const MaxExposuresPerClass = 64

// UserFeedback is one user's observed history, the two facts the model
// conditions later recommendations on: the competition classes the user
// already bought from (§3.1 competition) and the times the user was
// exposed to each class (the saturation memory of Eq. 1). The zero value
// is a user with no observations.
//
// Both slices are strictly ascending by class. Observe is the only
// mutation; a copy that must outlive later mutations is taken with Clone
// (or CloneUsers for a whole table).
type UserFeedback struct {
	Adopted []ClassID
	Exposed []ClassExposures
}

// ClassExposures is the exposure memory of one (user, class): the
// realized exposure times, oldest first.
type ClassExposures struct {
	Class ClassID
	Times []TimeStep
}

func exposedClass(ce ClassExposures, c ClassID) int { return cmp.Compare(ce.Class, c) }

// HasAdopted reports whether the user already bought from class c.
func (f *UserFeedback) HasAdopted(c ClassID) bool {
	_, ok := slices.BinarySearch(f.Adopted, c)
	return ok
}

// Exposures returns the user's exposure times to class c, oldest first
// (nil when never exposed). The slice is the user's own: read it only
// while no Observe can run.
func (f *UserFeedback) Exposures(c ClassID) []TimeStep {
	if k, ok := slices.BinarySearchFunc(f.Exposed, c, exposedClass); ok {
		return f.Exposed[k].Times
	}
	return nil
}

// Empty reports whether the user has no observations.
func (f *UserFeedback) Empty() bool { return len(f.Adopted) == 0 && len(f.Exposed) == 0 }

// Observe folds one realized recommendation outcome in: the exposure at
// t always accrues saturation memory — once a class holds limit exposures
// (limit > 0) the oldest is evicted first — and an adoption marks the
// class adopted. It reports whether this was the user's first adoption in
// c, and the evicted exposure time (0 when none was evicted; time steps
// start at 1).
func (f *UserFeedback) Observe(c ClassID, t TimeStep, adopted bool, limit int) (first bool, evicted TimeStep) {
	k, ok := slices.BinarySearchFunc(f.Exposed, c, exposedClass)
	switch {
	case !ok:
		f.Exposed = slices.Insert(f.Exposed, k, ClassExposures{Class: c, Times: []TimeStep{t}})
	case limit > 0 && len(f.Exposed[k].Times) >= limit:
		ts := f.Exposed[k].Times
		evicted = ts[0]
		copy(ts, ts[1:])
		ts[len(ts)-1] = t
	default:
		f.Exposed[k].Times = append(f.Exposed[k].Times, t)
	}
	if adopted {
		if k, ok := slices.BinarySearch(f.Adopted, c); !ok {
			f.Adopted = slices.Insert(f.Adopted, k, c)
			first = true
		}
	}
	return first, evicted
}

// Clone returns a deep copy of f.
func (f UserFeedback) Clone() UserFeedback {
	return CloneUsers([]UserFeedback{f})[0]
}

// CloneUsers deep-copies a table of per-user histories. The copies share
// three backing arrays (classes, exposure lists, times) instead of
// allocating per user; every slice is capped at its length, so growing
// one user's copy reallocates it rather than writing into a neighbour.
func CloneUsers(users []UserFeedback) []UserFeedback {
	var na, ne, nt int
	for i := range users {
		na += len(users[i].Adopted)
		ne += len(users[i].Exposed)
		for _, ce := range users[i].Exposed {
			nt += len(ce.Times)
		}
	}
	out := make([]UserFeedback, len(users))
	adopted := make([]ClassID, 0, na)
	exposed := make([]ClassExposures, 0, ne)
	times := make([]TimeStep, 0, nt)
	for i := range users {
		f := &users[i]
		if len(f.Adopted) > 0 {
			lo := len(adopted)
			adopted = append(adopted, f.Adopted...)
			out[i].Adopted = adopted[lo:len(adopted):len(adopted)]
		}
		if len(f.Exposed) > 0 {
			lo := len(exposed)
			for _, ce := range f.Exposed {
				t0 := len(times)
				times = append(times, ce.Times...)
				exposed = append(exposed, ClassExposures{Class: ce.Class, Times: times[t0:len(times):len(times)]})
			}
			out[i].Exposed = exposed[lo:len(exposed):len(exposed)]
		}
	}
	return out
}

// DiffClasses appends to dst, in ascending order and once each, the
// classes on which f and g disagree: adopted by one and not the other,
// or with different exposure lists (nil and empty lists are equal).
func (f *UserFeedback) DiffClasses(g *UserFeedback, dst []ClassID) []ClassID {
	n := len(dst)
	a, b := f.Adopted, g.Adopted
	for len(a) > 0 || len(b) > 0 {
		switch {
		case len(b) == 0 || len(a) > 0 && a[0] < b[0]:
			dst, a = append(dst, a[0]), a[1:]
		case len(a) == 0 || b[0] < a[0]:
			dst, b = append(dst, b[0]), b[1:]
		default:
			a, b = a[1:], b[1:]
		}
	}
	x, y := f.Exposed, g.Exposed
	for len(x) > 0 || len(y) > 0 {
		switch {
		case len(y) == 0 || len(x) > 0 && x[0].Class < y[0].Class:
			if len(x[0].Times) > 0 {
				dst = append(dst, x[0].Class)
			}
			x = x[1:]
		case len(x) == 0 || y[0].Class < x[0].Class:
			if len(y[0].Times) > 0 {
				dst = append(dst, y[0].Class)
			}
			y = y[1:]
		default:
			if !slices.Equal(x[0].Times, y[0].Times) {
				dst = append(dst, x[0].Class)
			}
			x, y = x[1:], y[1:]
		}
	}
	tail := dst[n:]
	slices.Sort(tail)
	return append(dst[:n], slices.Compact(tail)...)
}
