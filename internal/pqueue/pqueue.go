// Package pqueue provides the priority-queue machinery behind the RevMax
// greedy algorithms: a single-level max-heap keyed by float64 (used by
// SL-Greedy / RL-Greedy, Algorithm 2) and the two-level heap structure of
// Algorithm 1 (G-Greedy), where a lower max-heap per (user, item) pair
// holds that pair's time steps and an upper max-heap ranks the lower
// roots.
//
// The two-level split is the paper's optimization: each lower heap has at
// most T elements (T = 7 in the experiments), so Decrease-Key traffic
// stays inside tiny heaps, while the upper heap has at most |U|·|I|
// elements — a factor T smaller than one giant heap.
package pqueue

import (
	"repro/internal/model"
)

// Entry is one candidate tracked by a heap, with its cached (possibly
// stale) marginal revenue and the lazy-forward flag of Algorithm 1 (line
// 9). It holds no copy of the triple or its probability — callers read
// those from the instance by ID — so it takes 24 bytes, and every
// G-Greedy solve and incremental session holds one per candidate.
type Entry struct {
	ID   model.CandID // dense candidate ID (hot-path addressing)
	Pair int32        // dense (user, item) pair ID: selects the lower heap
	Key  float64      // cached marginal revenue (may be stale)
	Flag int32        // lazy-forward freshness stamp

	pos int32 // index within its heap
}

// Beats reports whether e precedes o in the deterministic total order
// all heaps in this package share: larger Key first, smaller candidate
// ID on exact float ties. The tie-break makes every greedy selection a
// unique global argmax, which is what lets the parallel G-Greedy solver
// reproduce the sequential selection sequence byte-for-byte regardless
// of worker count.
func (e *Entry) Beats(o *Entry) bool {
	if e.Key != o.Key {
		return e.Key > o.Key
	}
	return e.ID < o.ID
}

// Max is a binary max-heap of entries ordered by (Key desc, ID asc).
// The zero value is an empty, ready-to-use heap.
type Max struct {
	es []*Entry
}

// Len reports the number of entries.
func (h *Max) Len() int { return len(h.es) }

// Empty reports whether the heap has no entries.
func (h *Max) Empty() bool { return len(h.es) == 0 }

// Push inserts e.
func (h *Max) Push(e *Entry) {
	e.pos = int32(len(h.es))
	h.es = append(h.es, e)
	h.siftUp(len(h.es) - 1)
}

// Peek returns the maximum entry without removing it, or nil when empty.
func (h *Max) Peek() *Entry {
	if len(h.es) == 0 {
		return nil
	}
	return h.es[0]
}

// Pop removes and returns the maximum entry, or nil when empty.
func (h *Max) Pop() *Entry {
	if len(h.es) == 0 {
		return nil
	}
	top := h.es[0]
	last := len(h.es) - 1
	h.swap(0, last)
	h.es = h.es[:last]
	if last > 0 {
		h.siftDown(0)
	}
	top.pos = -1
	return top
}

// holds reports whether e currently sits in h.
func (h *Max) holds(e *Entry) bool {
	return e.pos >= 0 && int(e.pos) < len(h.es) && h.es[e.pos] == e
}

// Fix restores heap order after e.Key changed in place.
func (h *Max) Fix(e *Entry) {
	if !h.holds(e) {
		return
	}
	if !h.siftUp(int(e.pos)) {
		h.siftDown(int(e.pos))
	}
}

// Entries exposes the raw entry slice (heap order, not sorted). Callers
// must not mutate the slice itself; mutating Key requires a Fix.
func (h *Max) Entries() []*Entry { return h.es }

func (h *Max) swap(a, b int) {
	h.es[a], h.es[b] = h.es[b], h.es[a]
	h.es[a].pos = int32(a)
	h.es[b].pos = int32(b)
}

func (h *Max) siftUp(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !h.es[i].Beats(h.es[parent]) {
			break
		}
		h.swap(parent, i)
		i = parent
		moved = true
	}
	return moved
}

func (h *Max) siftDown(i int) {
	n := len(h.es)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.es[l].Beats(h.es[best]) {
			best = l
		}
		if r < n && h.es[r].Beats(h.es[best]) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

// lower is one per-(user,item) heap plus its position in the upper heap
// and a cached copy of its root (key and candidate ID): upper-heap sift
// comparisons read the cache instead of chasing two pointers into the
// lower heap's root entry. Every lower-heap mutation must refreshRoot
// before the upper heap is touched.
type lower struct {
	heap   Max
	root   float64
	rootID model.CandID
	pos    int // index within the upper heap; -1 while the pair is inactive
}

func (lo *lower) refreshRoot() {
	if lo.heap.Empty() {
		lo.root = negInf
		lo.rootID = 1<<31 - 1
		return
	}
	top := lo.heap.Peek()
	lo.root = top.Key
	lo.rootID = top.ID
}

// rootBeats orders lowers by their cached roots under the package's
// deterministic total order (Key desc, ID asc).
func (lo *lower) rootBeats(o *lower) bool {
	if lo.root != o.root {
		return lo.root > o.root
	}
	return lo.rootID < o.rootID
}

const negInf = -1e308

// TwoLevel is the two-level heap of Algorithm 1. Populate with Add, then
// call Build once; afterwards PeekMax / DeleteMax / FixPairOf /
// DeletePairOf maintain the invariant that the upper root's lower root is
// the global maximum. Lower heaps live in one bulk-allocated array
// indexed by Entry.Pair (the instance's dense (user, item) pair IDs), so
// every pair lookup is an array read.
type TwoLevel struct {
	lowers []lower
	upper  []*lower
	count  int
	built  bool
}

// NewTwoLevelDense returns an empty two-level heap whose lower heaps are
// addressed by the dense pair IDs [0, numPairs) carried in Entry.Pair.
// caps, when non-nil, gives each pair's maximum entry count (len =
// numPairs): lower-heap storage is then carved out of one bulk backing
// array and Pushes never allocate. The heap is populate-then-consume:
// Add all entries, Build, then select; re-adding to a pair dropped by
// DeletePairOf is not supported (RestorePair replaces a pair instead).
func NewTwoLevelDense(numPairs int, caps []int32) *TwoLevel {
	t := &TwoLevel{lowers: make([]lower, numPairs)}
	if caps != nil {
		total := 0
		for _, c := range caps {
			total += int(c)
		}
		backing := make([]*Entry, total)
		off := 0
		for i := range t.lowers {
			end := off + int(caps[i])
			t.lowers[i].heap.es = backing[off:off:end]
			off = end
		}
	}
	for i := range t.lowers {
		t.lowers[i].pos = -1
	}
	return t
}

// Add inserts an entry into its (user, item) lower heap. Add may be used
// both before and after Build; before Build the upper heap is not yet
// ordered, afterwards Add restores the upper-heap invariant itself.
func (t *TwoLevel) Add(e *Entry) {
	lo := &t.lowers[e.Pair]
	if lo.pos < 0 {
		if lo.heap.Len() > 0 {
			// The pair was dropped wholesale by DeletePairOf with its
			// entries still in place; reactivating it would resurrect
			// those stale entries alongside e.
			panic("pqueue: Add to a pair dropped by DeletePairOf")
		}
		lo.pos = len(t.upper)
		t.upper = append(t.upper, lo)
	}
	lo.heap.Push(e)
	lo.refreshRoot()
	t.count++
	if t.built {
		// Post-Build insert: the lower's root may have grown (or the lower
		// may be brand new at the tail of the upper array), so the upper
		// heap must be re-sifted or PeekMax/DeleteMax can return a
		// non-maximal entry.
		t.fixUpper(lo.pos)
	}
}

// lowerOf resolves an entry's lower heap; nil when the pair has been
// deleted (or never added).
func (t *TwoLevel) lowerOf(e *Entry) *lower {
	lo := &t.lowers[e.Pair]
	if lo.pos < 0 {
		return nil
	}
	return lo
}

// Build heapifies the upper heap over all lower roots (Algorithm 1,
// line 10). Entries Added afterwards keep the invariant incrementally.
func (t *TwoLevel) Build() {
	for i := len(t.upper)/2 - 1; i >= 0; i-- {
		t.siftDown(i)
	}
	t.built = true
}

// Len reports the total number of entries across all lower heaps.
func (t *TwoLevel) Len() int { return t.count }

// Empty reports whether no entries remain.
func (t *TwoLevel) Empty() bool { return t.count == 0 }

// PeekMax returns the globally maximum entry (the root of the upper
// root's lower heap), or nil when empty.
func (t *TwoLevel) PeekMax() *Entry {
	for len(t.upper) > 0 {
		top := t.upper[0]
		if top.heap.Empty() {
			t.removeUpper(0)
			continue
		}
		return top.heap.Peek()
	}
	return nil
}

// DeleteMax removes and returns the globally maximum entry.
func (t *TwoLevel) DeleteMax() *Entry {
	e := t.PeekMax()
	if e == nil {
		return nil
	}
	top := t.upper[0]
	top.heap.Pop()
	top.refreshRoot()
	t.count--
	if top.heap.Empty() {
		t.removeUpper(0)
	} else {
		t.siftDown(0)
	}
	return e
}

// PairEntriesOf returns the entries of e's (user, item) lower heap so
// the caller can recompute their keys (Algorithm 1, lines 16–18).
// Returns nil when the pair has been deleted. After mutating keys call
// FixPairOf.
func (t *TwoLevel) PairEntriesOf(e *Entry) []*Entry {
	lo := t.lowerOf(e)
	if lo == nil {
		return nil
	}
	return lo.heap.Entries()
}

// FixPairOf re-heapifies e's (user, item) lower heap after its keys
// changed and repositions it in the upper heap (the Decrease-Key of line
// 19).
func (t *TwoLevel) FixPairOf(e *Entry) {
	lo := t.lowerOf(e)
	if lo == nil {
		return
	}
	es := lo.heap.Entries()
	for j := len(es)/2 - 1; j >= 0; j-- {
		lo.heap.siftDown(j)
	}
	lo.refreshRoot()
	t.fixUpper(lo.pos)
}

// DeleteEntry removes a single entry from its lower heap (used when a
// specific triple becomes permanently infeasible).
func (t *TwoLevel) DeleteEntry(e *Entry) {
	lo := t.lowerOf(e)
	if lo == nil || !lo.heap.holds(e) {
		return
	}
	h := &lo.heap
	last := len(h.es) - 1
	i := int(e.pos)
	h.swap(i, last)
	h.es = h.es[:last]
	if i < last {
		if !h.siftUp(i) {
			h.siftDown(i)
		}
	}
	e.pos = -1
	t.count--
	lo.refreshRoot()
	if h.Empty() {
		t.removeUpper(lo.pos)
	} else {
		t.fixUpper(lo.pos)
	}
}

// Contains reports whether e currently sits in an active lower heap of
// t — i.e. PeekMax/DeleteMax could eventually surface it. Entries
// popped by DeleteMax, removed by DeleteEntry, or orphaned in a pair
// dropped by DeletePairOf are not contained. Persistent sessions use
// this to decide between an in-place UpdateKey and a RestorePair.
func (t *TwoLevel) Contains(e *Entry) bool {
	lo := t.lowerOf(e)
	return lo != nil && lo.heap.holds(e)
}

// UpdateKey overwrites e's cached key and lazy-forward flag in place and
// restores both heap levels' invariants — the O(log T + log |pairs|)
// point update behind delta-driven incremental replanning (only dirty
// candidates pay it; clean entries are never touched). Reports false
// without mutating anything when e is not currently in an active lower
// heap (caller falls back to RestorePair).
func (t *TwoLevel) UpdateKey(e *Entry, key float64, flag int32) bool {
	lo := t.lowerOf(e)
	if lo == nil || !lo.heap.holds(e) {
		return false
	}
	e.Key = key
	e.Flag = flag
	lo.heap.Fix(e)
	lo.refreshRoot()
	if t.built {
		t.fixUpper(lo.pos)
	}
	return true
}

// RestorePair rebuilds pair p's lower heap to hold exactly es (whose
// Keys the caller has already set), replacing whatever the pair held
// before — including nothing: unlike Add, RestorePair may reactivate a
// pair dropped wholesale by DeletePairOf, because it replaces every entry
// rather than resurrecting stale ones. An empty es deactivates the pair.
// Entry storage reuses the pair's carved backing window, so len(es) must
// not exceed the pair's construction-time cap.
func (t *TwoLevel) RestorePair(p int32, es []*Entry) {
	lo := &t.lowers[p]
	oldActive := 0
	if lo.pos >= 0 {
		oldActive = lo.heap.Len()
	}
	h := &lo.heap
	h.es = h.es[:0]
	for k, e := range es {
		e.pos = int32(k)
		h.es = append(h.es, e)
	}
	for j := len(h.es)/2 - 1; j >= 0; j-- {
		h.siftDown(j)
	}
	lo.refreshRoot()
	t.count += len(es) - oldActive
	switch {
	case len(es) == 0:
		if lo.pos >= 0 {
			t.removeUpper(lo.pos)
		}
	case lo.pos < 0:
		lo.pos = len(t.upper)
		t.upper = append(t.upper, lo)
		if t.built {
			t.fixUpper(lo.pos)
		}
	default:
		if t.built {
			t.fixUpper(lo.pos)
		}
	}
}

// DeletePairOf removes e's whole (user, item) lower heap from
// consideration (Algorithm 1, line 26: an infeasible pair is dropped
// wholesale).
func (t *TwoLevel) DeletePairOf(e *Entry) {
	lo := t.lowerOf(e)
	if lo == nil {
		return
	}
	t.count -= lo.heap.Len()
	t.removeUpper(lo.pos)
}

func (t *TwoLevel) removeUpper(i int) {
	lo := t.upper[i]
	last := len(t.upper) - 1
	t.swapUpper(i, last)
	t.upper = t.upper[:last]
	lo.pos = -1
	if i < last {
		t.fixUpper(i)
	}
}

func (t *TwoLevel) fixUpper(i int) {
	if i < 0 || i >= len(t.upper) {
		return
	}
	if !t.siftUp(i) {
		t.siftDown(i)
	}
}

func (t *TwoLevel) swapUpper(a, b int) {
	t.upper[a], t.upper[b] = t.upper[b], t.upper[a]
	t.upper[a].pos = a
	t.upper[b].pos = b
}

func (t *TwoLevel) siftUp(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !t.upper[i].rootBeats(t.upper[parent]) {
			break
		}
		t.swapUpper(parent, i)
		i = parent
		moved = true
	}
	return moved
}

func (t *TwoLevel) siftDown(i int) {
	n := len(t.upper)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && t.upper[l].rootBeats(t.upper[best]) {
			best = l
		}
		if r < n && t.upper[r].rootBeats(t.upper[best]) {
			best = r
		}
		if best == i {
			return
		}
		t.swapUpper(i, best)
		i = best
	}
}
