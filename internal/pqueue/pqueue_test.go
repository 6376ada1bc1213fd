package pqueue_test

import (
	"sort"
	"testing"
	"unsafe"

	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/pqueue"
)

// entry returns a heap entry for candidate id in (user, item) pair p.
func entry(p int32, id model.CandID, key float64) *pqueue.Entry {
	return &pqueue.Entry{ID: id, Pair: p, Key: key}
}

// TestEntryFootprint pins the heap entry at 24 bytes: every G-Greedy
// solve and every incremental session holds one per candidate.
func TestEntryFootprint(t *testing.T) {
	if got := unsafe.Sizeof(pqueue.Entry{}); got != 24 {
		t.Fatalf("pqueue.Entry is %d bytes, want 24", got)
	}
}

func TestMaxHeapOrdering(t *testing.T) {
	var h pqueue.Max
	keys := []float64{3, 1, 4, 1.5, 9, 2.6, 5}
	for i, k := range keys {
		h.Push(entry(0, model.CandID(i), k))
	}
	sorted := append([]float64(nil), keys...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	for _, want := range sorted {
		e := h.Pop()
		if e == nil || e.Key != want {
			t.Fatalf("Pop order wrong: got %v, want %v", e, want)
		}
	}
	if !h.Empty() || h.Pop() != nil {
		t.Fatal("heap not empty at end")
	}
}

func TestMaxHeapPeekDoesNotRemove(t *testing.T) {
	var h pqueue.Max
	h.Push(entry(0, 0, 5))
	if h.Peek() == nil || h.Len() != 1 {
		t.Fatal("Peek removed the entry")
	}
}

func TestMaxHeapFixAfterKeyChange(t *testing.T) {
	var h pqueue.Max
	a := entry(0, 0, 10)
	b := entry(0, 1, 5)
	c := entry(0, 2, 1)
	h.Push(a)
	h.Push(b)
	h.Push(c)
	// Decrease the max below everything; Fix must re-order.
	a.Key = 0
	h.Fix(a)
	if got := h.Pop(); got != b {
		t.Fatalf("after decrease, max = cand %d, want b", got.ID)
	}
	// Increase the min above everything.
	c.Key = 100
	h.Fix(c)
	if got := h.Pop(); got != c {
		t.Fatalf("after increase, max = cand %d, want c", got.ID)
	}
}

func TestMaxHeapRandomizedAgainstSort(t *testing.T) {
	rng := dist.NewRNG(9)
	for trial := 0; trial < 30; trial++ {
		var h pqueue.Max
		n := 1 + rng.Intn(200)
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = rng.Float64() * 1000
			h.Push(entry(0, model.CandID(i), keys[i]))
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(keys)))
		for _, want := range keys {
			if got := h.Pop().Key; got != want {
				t.Fatalf("trial %d: pop %v want %v", trial, got, want)
			}
		}
	}
}

func TestTwoLevelBasicOrdering(t *testing.T) {
	tl := pqueue.NewTwoLevelDense(3, nil)
	// Pairs with several entries each.
	tl.Add(entry(0, 0, 5))
	tl.Add(entry(0, 1, 9))
	tl.Add(entry(1, 2, 7))
	tl.Add(entry(2, 3, 3))
	tl.Build()
	want := []float64{9, 7, 5, 3}
	for _, w := range want {
		e := tl.DeleteMax()
		if e == nil || e.Key != w {
			t.Fatalf("DeleteMax = %v, want key %v", e, w)
		}
	}
	if !tl.Empty() {
		t.Fatal("two-level heap not drained")
	}
}

func TestTwoLevelRandomizedAgainstSort(t *testing.T) {
	rng := dist.NewRNG(10)
	for trial := 0; trial < 20; trial++ {
		var keys []float64
		users := 1 + rng.Intn(5)
		items := 1 + rng.Intn(5)
		tl := pqueue.NewTwoLevelDense(users*items, nil)
		id := model.CandID(0)
		for p := 0; p < users*items; p++ {
			for tt := 1; tt <= 1+rng.Intn(7); tt++ {
				k := rng.Float64() * 100
				keys = append(keys, k)
				tl.Add(entry(int32(p), id, k))
				id++
			}
		}
		tl.Build()
		if tl.Len() != len(keys) {
			t.Fatalf("Len = %d, want %d", tl.Len(), len(keys))
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(keys)))
		for _, w := range keys {
			if got := tl.DeleteMax().Key; got != w {
				t.Fatalf("trial %d: got %v want %v", trial, got, w)
			}
		}
	}
}

func TestTwoLevelDeletePair(t *testing.T) {
	tl := pqueue.NewTwoLevelDense(3, nil)
	a := entry(0, 0, 100)
	tl.Add(a)
	tl.Add(entry(0, 1, 90))
	tl.Add(entry(1, 2, 50))
	tl.Build()
	tl.DeletePairOf(a)
	if tl.Len() != 1 {
		t.Fatalf("Len after DeletePairOf = %d, want 1", tl.Len())
	}
	if got := tl.DeleteMax().Key; got != 50 {
		t.Fatalf("remaining max = %v, want 50", got)
	}
	// Deleting a pair that never held an entry is a no-op.
	tl.DeletePairOf(entry(2, 9, 0))
}

func TestTwoLevelDeleteEntry(t *testing.T) {
	tl := pqueue.NewTwoLevelDense(2, nil)
	a := entry(0, 0, 100)
	b := entry(0, 1, 90)
	c := entry(1, 2, 95)
	tl.Add(a)
	tl.Add(b)
	tl.Add(c)
	tl.Build()
	tl.DeleteEntry(a)
	if tl.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tl.Len())
	}
	if got := tl.PeekMax(); got != c {
		t.Fatalf("PeekMax = cand %d, want c", got.ID)
	}
	// Double-delete is a no-op.
	tl.DeleteEntry(a)
	if tl.Len() != 2 {
		t.Fatal("double DeleteEntry changed Len")
	}
}

func TestTwoLevelFixPairAfterKeyUpdates(t *testing.T) {
	tl := pqueue.NewTwoLevelDense(2, nil)
	a := entry(0, 0, 100)
	b := entry(0, 1, 90)
	c := entry(1, 2, 95)
	tl.Add(a)
	tl.Add(b)
	tl.Add(c)
	tl.Build()
	// Stale-root scenario: pair 0's keys collapse; after FixPairOf, pair 1
	// must surface.
	for _, e := range tl.PairEntriesOf(a) {
		e.Key = 1
	}
	tl.FixPairOf(a)
	if got := tl.PeekMax(); got != c {
		t.Fatalf("PeekMax after FixPairOf = cand %d, want c", got.ID)
	}
	order := []float64{95, 1, 1}
	for _, w := range order {
		if got := tl.DeleteMax().Key; got != w {
			t.Fatalf("got %v want %v", got, w)
		}
	}
}

func TestTwoLevelPairEntriesUnknownPair(t *testing.T) {
	tl := pqueue.NewTwoLevelDense(2, nil)
	tl.Add(entry(0, 0, 1))
	tl.Build()
	never := entry(1, 1, 1) // pair 1 never held an entry
	if tl.PairEntriesOf(never) != nil {
		t.Fatal("unknown pair should return nil")
	}
	tl.FixPairOf(never) // no-op, no panic
}

func TestTwoLevelEmptyPeek(t *testing.T) {
	tl := pqueue.NewTwoLevelDense(0, nil)
	tl.Build()
	if tl.PeekMax() != nil || tl.DeleteMax() != nil {
		t.Fatal("empty heap returned an entry")
	}
}

func TestTwoLevelInterleavedOperations(t *testing.T) {
	// Stress: random interleaving of DeleteMax, FixPairOf with random key
	// rewrites and DeleteEntry after a Build; compare against a model "bag".
	rng := dist.NewRNG(11)
	const pairs = 9
	for trial := 0; trial < 10; trial++ {
		tl := pqueue.NewTwoLevelDense(pairs, nil)
		var live []*pqueue.Entry
		var first [pairs]*pqueue.Entry
		id := model.CandID(0)
		for p := int32(0); p < pairs; p++ {
			for tt := 1; tt <= 4; tt++ {
				e := entry(p, id, rng.Float64()*100)
				id++
				tl.Add(e)
				live = append(live, e)
				if first[p] == nil {
					first[p] = e
				}
			}
		}
		tl.Build()
		for step := 0; step < 60 && !tl.Empty(); step++ {
			switch rng.Intn(3) {
			case 0: // DeleteMax and verify it is the true maximum
				var maxKey float64 = -1
				for _, e := range live {
					if e.Key > maxKey {
						maxKey = e.Key
					}
				}
				got := tl.DeleteMax()
				if got.Key != maxKey {
					t.Fatalf("trial %d step %d: DeleteMax %v, want %v", trial, step, got.Key, maxKey)
				}
				for idx, e := range live {
					if e == got {
						live = append(live[:idx], live[idx+1:]...)
						break
					}
				}
			case 1: // rewrite a random pair's keys
				e := first[rng.Intn(pairs)]
				for _, sib := range tl.PairEntriesOf(e) {
					sib.Key = rng.Float64() * 100
				}
				tl.FixPairOf(e)
			case 2: // delete a random live entry
				if len(live) == 0 {
					continue
				}
				idx := rng.Intn(len(live))
				tl.DeleteEntry(live[idx])
				live = append(live[:idx], live[idx+1:]...)
			}
			if tl.Len() != len(live) {
				t.Fatalf("trial %d: Len %d != model %d", trial, tl.Len(), len(live))
			}
		}
	}
}

// Regression: a post-Build Add with a new global maximum must re-sift
// the upper heap. Before the fix, Add only refreshed the lower's cached
// root, so PeekMax/DeleteMax returned a non-maximal entry.
func TestTwoLevelAddAfterBuildNewMaximumDenseMode(t *testing.T) {
	tl := pqueue.NewTwoLevelDense(4, nil)
	tl.Add(entry(0, 0, 10))
	tl.Add(entry(1, 1, 50)) // upper root after Build
	tl.Add(entry(2, 2, 30))
	tl.Build()
	// New maximum into an existing non-root pair.
	tl.Add(entry(0, 3, 99))
	if got := tl.PeekMax(); got == nil || got.Key != 99 {
		t.Fatalf("PeekMax after post-Build Add = %v, want key 99", got)
	}
	// New maximum as a brand-new pair (appended at the upper tail).
	tl.Add(entry(3, 4, 200))
	want := []float64{200, 99, 50, 30, 10}
	for _, w := range want {
		e := tl.DeleteMax()
		if e == nil || e.Key != w {
			t.Fatalf("DeleteMax = %v, want key %v", e, w)
		}
	}
}

// Regression: Add to a pair dropped wholesale by DeletePairOf must panic
// instead of silently resurrecting the dropped entries.
func TestTwoLevelDenseReAddDroppedPairPanics(t *testing.T) {
	tl := pqueue.NewTwoLevelDense(2, nil)
	a := entry(0, 0, 100)
	tl.Add(a)
	tl.Add(entry(0, 1, 90))
	tl.Add(entry(1, 2, 50))
	tl.Build()
	tl.DeletePairOf(a)
	defer func() {
		if recover() == nil {
			t.Fatal("Add to a dropped pair did not panic")
		}
	}()
	tl.Add(entry(0, 3, 1))
}

// Re-adding to a pair whose lower heap was fully drained entry by entry
// (not dropped wholesale) stays supported: no stale entries exist.
func TestTwoLevelDenseReAddDrainedPairOK(t *testing.T) {
	tl := pqueue.NewTwoLevelDense(2, nil)
	a := entry(0, 0, 100)
	tl.Add(a)
	tl.Add(entry(1, 1, 50))
	tl.Build()
	tl.DeleteEntry(a) // drains pair 0, removing it from the upper heap
	tl.Add(entry(0, 2, 75))
	want := []float64{75, 50}
	for _, w := range want {
		e := tl.DeleteMax()
		if e == nil || e.Key != w {
			t.Fatalf("DeleteMax = %v, want key %v", e, w)
		}
	}
}

// Double deletes after DeletePairOf must hit the lowerOf nil guards and
// stay no-ops.
func TestTwoLevelDoubleDeleteGuards(t *testing.T) {
	tl := pqueue.NewTwoLevelDense(2, nil)
	a := entry(0, 0, 100)
	b := entry(0, 1, 90)
	tl.Add(a)
	tl.Add(b)
	tl.Add(entry(1, 2, 50))
	tl.Build()
	tl.DeletePairOf(a)
	if tl.Len() != 1 {
		t.Fatalf("Len after DeletePairOf = %d, want 1", tl.Len())
	}
	tl.DeletePairOf(a) // repeat: nil lower, no-op
	tl.DeleteEntry(a)  // entry of a dropped pair: no-op
	tl.DeleteEntry(b)
	if tl.Len() != 1 {
		t.Fatalf("deletes after DeletePairOf changed Len to %d", tl.Len())
	}
	if got := tl.DeleteMax(); got == nil || got.Key != 50 {
		t.Fatalf("surviving max = %v, want 50", got)
	}
	if !tl.Empty() {
		t.Fatal("heap not empty at end")
	}
}

// The deterministic total order: exact key ties break toward the
// smaller candidate ID, in both the flat Max heap and the two-level
// heap. This is what pins parallel G-Greedy to the sequential output.
func TestDeterministicTieBreakByID(t *testing.T) {
	var h pqueue.Max
	for _, id := range []model.CandID{7, 3, 9, 1, 5} {
		h.Push(entry(0, id, 42))
	}
	for _, want := range []model.CandID{1, 3, 5, 7, 9} {
		if got := h.Pop(); got.ID != want {
			t.Fatalf("Max tie-break pop = %d, want %d", got.ID, want)
		}
	}

	tl := pqueue.NewTwoLevelDense(3, nil)
	tl.Add(entry(0, 4, 42))
	tl.Add(entry(0, 2, 42))
	tl.Add(entry(1, 0, 42))
	tl.Add(entry(2, 3, 42))
	tl.Build()
	for _, want := range []model.CandID{0, 2, 3, 4} {
		e := tl.DeleteMax()
		if e == nil || e.ID != want {
			t.Fatalf("TwoLevel tie-break DeleteMax = %v, want ID %d", e, want)
		}
	}
}
