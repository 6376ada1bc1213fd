package core

import (
	"context"
	"math"
	"time"

	"repro/internal/model"
)

// The per-user pass solves one scan window of Algorithm 1 user by user
// and then commits the result in the order the global two-level heap
// would have produced it.
//
// Why this is exact: display slots (u, t), capacity pairs (u, i) and the
// (user, class) revenue groups of Definition 1 all belong to one user, so
// a user's heap entries change only when that user's own entry is
// popped. The only coupling between users is item capacity, and the pass
// runs only on instances where it cannot bind: no item has more (user,
// item) pairs than its capacity, so no plan can give it more recipients
// (capacityFree). The global loop's pops restricted to one user are then
// exactly the pops of that user solved alone, and the global root at
// every step is the largest current root over all users. Merging the
// users' recorded pop sequences by (key desc, CandID asc) — always
// taking the user whose next pop is largest — reproduces the global pop
// sequence. A selection's gain depends only on its own group, so summing
// the gains in that order reproduces the running revenue total, the
// curve, the progress reports and every counter bit for bit.

// Pop kinds recorded by the per-user pass. A non-negative kind is a
// stale root whose pair refresh recomputed that many entries (always at
// least one: the root itself).
const (
	popSelect int32 = -1 // fresh feasible root: selected
	popDrop   int32 = -2 // display-infeasible root: deleted
	popStop   int32 = -3 // root at or below Eps: the loop's terminating pop
)

// capacityFree reports whether no item of in has more (user, item) pairs
// than its capacity. Then no plan over in gives an item more recipients
// than it can take, and no capacity check ever fails.
func capacityFree(in *model.Instance) bool {
	users := make([]int32, in.NumItems())
	for p := int32(0); int(p) < in.NumPairs(); p++ {
		users[in.PairItem(p)]++
	}
	for i, n := range users {
		if int(n) > in.Capacity(model.ItemID(i)) {
			return false
		}
	}
	return true
}

// passPop is one recorded heap pop: the root's (key, CandID) — its
// position in the global pop order — and what the pop did. A selection
// also records its realized gain, which depends only on its own group.
type passPop struct {
	key  float64
	gain float64
	id   model.CandID
	kind int32
}

// userEntry is one candidate of the user being solved: the per-user
// counterpart of a pqueue.Entry.
type userEntry struct {
	key  float64
	id   model.CandID
	flag int32
	dead bool // selected or display-deleted
}

// userPair is one (user, item) pair of the working set — the per-user
// counterpart of a lower heap: its entries ents[lo:hi] and the index of
// its live maximum (-1 once none is left).
type userPair struct {
	lo, hi, best int32
}

// userSet is the working set of the user being solved, reused across
// users: its entries in CandID order, grouped into pairs.
type userSet struct {
	ents  []userEntry
	pairs []userPair
	pair  int32 // pair ID of the last entry added
}

func (us *userSet) reset() {
	us.ents, us.pairs = us.ents[:0], us.pairs[:0]
}

// add appends the next candidate; candidates arrive in CandID order, so
// a pair's entries are contiguous.
func (us *userSet) add(e userEntry, pair int32) {
	k := int32(len(us.ents))
	us.ents = append(us.ents, e)
	if len(us.pairs) == 0 || us.pair != pair {
		us.pairs = append(us.pairs, userPair{lo: k, hi: k + 1, best: k})
		us.pair = pair
		return
	}
	p := &us.pairs[len(us.pairs)-1]
	p.hi = k + 1
	if entryBeats(&us.ents[k], &us.ents[p.best]) {
		p.best = k
	}
}

// top returns the pair holding the user's live maximum, or nil.
func (us *userSet) top() *userPair {
	var top *userPair
	for i := range us.pairs {
		p := &us.pairs[i]
		if p.best >= 0 && (top == nil || entryBeats(&us.ents[p.best], &us.ents[top.best])) {
			top = p
		}
	}
	return top
}

// fix recomputes p's live maximum.
func (us *userSet) fix(p *userPair) {
	p.best = -1
	for k := p.lo; k < p.hi; k++ {
		if !us.ents[k].dead && (p.best < 0 || entryBeats(&us.ents[k], &us.ents[p.best])) {
			p.best = k
		}
	}
}

// entryBeats is the heaps' total order: larger key first, smaller
// CandID on exact ties.
func entryBeats(a, b *userEntry) bool {
	if a.key != b.key {
		return a.key > b.key
	}
	return a.id < b.id
}

// perUserPass records one window's per-user solve: every user's pops,
// user by user, with userEnd[u] the end of user u's run in pops. base and
// start are the window-start plan size and revenue total; total advances
// from start through the committed selections in global order.
type perUserPass struct {
	pops         []passPop
	userEnd      []int32
	considered   int
	base         int
	start, total float64
}

// perUserWindow solves window [lo, hi] with the per-user pass and commits
// it into st. ok is false when ctx was canceled mid-pass; st is then as
// it was at the window start and the caller runs the global loop, which
// reports the cancellation. The arguments and the other results are
// gGreedyWindow's.
func perUserWindow(ctx context.Context, st *state, lo, hi model.TimeStep, progress ProgressFn, upperBoundInit bool) (selections, recomputations int, ok bool, err error) {
	start := time.Now()
	pass := &perUserPass{
		pops:    make([]passPop, 0, st.in.NumCands()),
		userEnd: make([]int32, st.in.NumUsers),
		base:    st.len(),
		start:   st.ev.Total(),
		total:   st.ev.Total(),
	}
	if !pass.solve(ctx, st, lo, hi, upperBoundInit) {
		pass.undo(st)
		return 0, 0, false, nil
	}
	commitStart := time.Now()
	st.stats.Considered += pass.considered
	st.stats.ScanNanos += commitStart.Sub(start).Nanoseconds()
	defer func() { st.stats.SelectNanos += time.Since(commitStart).Nanoseconds() }()
	selections, recomputations, err = pass.commit(ctx, st, progress)
	if err != nil {
		// Canceled mid-commit: the global loop would hold the window-start
		// state plus the selections committed so far.
		st.curve = st.curve[:len(st.curve)-selections]
		pass.undo(st)
		pass.replay(st, selections)
		return selections, recomputations, true, err
	}
	st.ev.SetTotal(pass.total)
	return selections, recomputations, true, nil
}

// solve solves every user's window candidates to completion, adding the
// selections to st's plan and evaluator (not its curve) and recording
// the pops. Each user's initial keys and the warm pre-filter are read
// before that user is solved, when st holds exactly what the global
// loop's scan sees of the user; cold windows take the bulk p·q keys. It
// reports false when ctx is canceled.
func (pass *perUserPass) solve(ctx context.Context, st *state, lo, hi model.TimeStep, upperBoundInit bool) bool {
	in := st.in
	flat := in.Candidates()
	cold := st.len() == 0 && !upperBoundInit
	var (
		us   userSet
		keys []float64
	)
	for u := 0; u < in.NumUsers; u++ {
		if ctx.Err() != nil {
			return false
		}
		ulo, uhi := in.UserCandSpan(model.UserID(u))
		if cold {
			if n := int(uhi - ulo); cap(keys) < n {
				keys = make([]float64, n)
			}
			keys = keys[:uhi-ulo]
			in.UpperBoundKeys(ulo, uhi, keys)
		}
		// The user's window candidates with Algorithm 1's initial keys and
		// flags, exactly as the global loop builds them.
		us.reset()
		for id := ulo; id < uhi; id++ {
			c := &flat[id]
			if c.T < lo || c.T > hi {
				continue
			}
			key, flag := 0.0, int32(0)
			switch {
			case upperBoundInit:
				if st.check(id) != violationNone {
					continue
				}
				key = in.Price(c.I, c.T) * c.Q
			case cold:
				key = keys[id-ulo]
			default:
				key = st.ev.MarginalGainID(id)
				flag = int32(st.ev.GroupSizeID(id))
			}
			us.add(userEntry{key: key, id: id, flag: flag}, in.PairOf(id))
		}
		pass.considered += len(us.ents)
		pass.solveUser(st, &us)
		pass.userEnd[u] = int32(len(pass.pops))
	}
	return true
}

// solveUser runs Algorithm 1's selection loop over one user's working
// set, adding the selections to st's plan and evaluator and appending
// every pop. Capacity never binds (capacityFree), so every violation is
// a display one.
func (pass *perUserPass) solveUser(st *state, us *userSet) {
	for {
		p := us.top()
		if p == nil {
			return
		}
		e := &us.ents[p.best]
		if e.key <= Eps {
			pass.pops = append(pass.pops, passPop{key: e.key, id: e.id, kind: popStop})
			return
		}
		if st.check(e.id) != violationNone {
			pass.pops = append(pass.pops, passPop{key: e.key, id: e.id, kind: popDrop})
			e.dead = true
			us.fix(p)
			continue
		}
		fresh := int32(st.ev.GroupSizeID(e.id))
		if e.flag < fresh {
			// Stale root: refresh its whole pair (lines 15–19).
			pass.pops = append(pass.pops, passPop{key: e.key, id: e.id})
			pop := &pass.pops[len(pass.pops)-1]
			for k := p.lo; k < p.hi; k++ {
				if s := &us.ents[k]; !s.dead {
					s.key = st.ev.MarginalGainID(s.id)
					s.flag = fresh
					pop.kind++
				}
			}
			us.fix(p)
			continue
		}
		st.p.Add(e.id)
		gain := st.ev.AddID(e.id)
		pass.pops = append(pass.pops, passPop{key: e.key, gain: gain, id: e.id, kind: popSelect})
		e.dead = true
		us.fix(p)
	}
}

// undo removes every selection the pass added from st and restores the
// window-start total: group revenues are a function of their entries,
// so st is bit for bit its window-start self.
func (pass *perUserPass) undo(st *state) {
	for k := range pass.pops {
		if p := &pass.pops[k]; p.kind == popSelect {
			st.remove(p.id)
		}
	}
	st.ev.SetTotal(pass.start)
}

// mergeKey is one run's head in the commit merge. Consumed-out runs
// carry the sentinel (-Inf, MaxInt32), which sorts after every real pop.
type mergeKey struct {
	key float64
	id  model.CandID
	run int32
}

func (a mergeKey) beats(b mergeKey) bool {
	if a.key != b.key {
		return a.key > b.key
	}
	return a.id < b.id
}

// popMerge is a tournament (loser) tree over the users' pop runs. Its
// winner is the head that comes first under (key desc, CandID asc);
// replacing the winner costs one comparison per tree level.
type popMerge struct {
	pops     []passPop
	cur, end []int32    // run k's next unconsumed pop and its end
	node     []mergeKey // node[0] the winner; node[p] the loser at internal node p
}

func newPopMerge(pass *perUserPass) *popMerge {
	m := &popMerge{pops: pass.pops}
	begin := int32(0)
	for _, end := range pass.userEnd {
		if end > begin {
			m.cur = append(m.cur, begin)
			m.end = append(m.end, end)
		}
		begin = end
	}
	n := len(m.cur)
	if n == 0 {
		return m
	}
	win := make([]mergeKey, 2*n)
	for k := 0; k < n; k++ {
		win[n+k] = m.head(int32(k))
	}
	m.node = make([]mergeKey, n)
	for p := n - 1; p >= 1; p-- {
		a, b := win[2*p], win[2*p+1]
		if b.beats(a) {
			a, b = b, a
		}
		win[p], m.node[p] = a, b
	}
	m.node[0] = win[1]
	return m
}

// head returns run k's next pop as a merge key.
func (m *popMerge) head(k int32) mergeKey {
	if m.cur[k] == m.end[k] {
		return mergeKey{key: math.Inf(-1), id: math.MaxInt32, run: k}
	}
	p := &m.pops[m.cur[k]]
	return mergeKey{key: p.key, id: p.id, run: k}
}

// empty reports whether every run is consumed.
func (m *popMerge) empty() bool {
	return len(m.node) == 0 || m.cur[m.node[0].run] == m.end[m.node[0].run]
}

// next consumes and returns the next pop in global order; the merge must
// not be empty.
func (m *popMerge) next() *passPop {
	k := m.node[0].run
	p := &m.pops[m.cur[k]]
	m.cur[k]++
	w := m.head(k)
	for i := (int(k) + len(m.node)) / 2; i >= 1; i /= 2 {
		if m.node[i].beats(w) {
			m.node[i], w = w, m.node[i]
		}
	}
	m.node[0] = w
	return p
}

// commit replays the window's pops in the global loop's order, with the
// global loop's own stops: the k·T·|U| limit and ctx are checked before
// every pop, and the first pop at or below Eps ends the window. It
// advances the running total and the curve through the selections, with
// a progress report each; the plan and evaluator already hold them.
func (pass *perUserPass) commit(ctx context.Context, st *state, progress ProgressFn) (selections, recomputations int, err error) {
	m := newPopMerge(pass)
	limit := maxSelections(st.in)
	// An empty merge is the global loop's empty heap: every entry
	// selected or deleted.
	for pass.base+selections < limit && !m.empty() {
		if err := ctx.Err(); err != nil {
			return selections, recomputations, err
		}
		st.stats.HeapPops++
		p := m.next()
		switch {
		case p.kind == popStop:
			return selections, recomputations, nil
		case p.kind == popDrop:
			continue
		case p.kind > 0:
			recomputations += int(p.kind)
			continue
		}
		pass.total += p.gain
		st.curve = append(st.curve, pass.total)
		selections++
		if progress != nil {
			progress(Progress{Done: pass.base + selections, Total: limit, Best: pass.total})
		}
	}
	return selections, recomputations, nil
}

// replay adds the window's first n selections in global order to st.
func (pass *perUserPass) replay(st *state, n int) {
	m := newPopMerge(pass)
	for n > 0 {
		if p := m.next(); p.kind == popSelect {
			st.add(p.id)
			n--
		}
	}
}
