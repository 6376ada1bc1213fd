package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/codec"
	"repro/internal/model"
	"repro/internal/store"
)

// SnapshotVersion is bumped on breaking changes to the snapshot format.
// Version 1 was a JSON envelope; it is rejected, not migrated.
const SnapshotVersion = 2

// snapMagic opens every snapshot image.
const snapMagic = "RVMXSNAP"

// A snapshot image is one little-endian buffer (appendSnapshot):
//
//	header    magic "RVMXSNAP", u32 version
//	scalars   i32 now, i64 plan revision, f64 plan revenue,
//	          i32 planned-from, i64 adoptions, i64 exposures, i64 replans
//	instance  codec.AppendInstanceBinary: shape, item columns (class,
//	          beta, capacity, T prices), candidate columns in CandID order
//	stock     u32 count (= items), count × i64
//	plan      u32 count, count × u32 CandID, strictly ascending
//	feedback  u32 users, users × i32 user (ascending);
//	          users × u32 adopted count, then the adopted classes;
//	          users × u32 exposed-class count, then the exposed classes,
//	          then one u32 time count per exposed class, then the times
//	          (classes ascend within each user)
//	trailer   u32 CRC32-C (store.Checksum) of everything before it
const snapHeaderLen = len(snapMagic) + 4

// snapState is one consistent capture of the engine's state: the
// scalars, stock and per-user feedback a warm restart needs, the
// instance and plan that were live at capture time, and — for durable
// engines — the WAL position the capture is consistent with. It is
// also what parseSnapshot decodes an image into.
type snapState struct {
	now, from                               model.TimeStep
	revision, adoptions, exposures, replans int64
	revenue                                 float64
	stock                                   []int64
	users                                   []model.UserFeedback // indexed by UserID
	in                                      *model.Instance
	plan                                    *model.Plan // in's CandID space
	lsn                                     store.LSN
}

// captureState builds a snapState. It is normally executed *by the
// feedback loop* between event applications, so stock and per-user
// state can never reflect a half-applied adoption; after Close (loop
// gone, no writers left) it is safe to call directly.
func (e *Engine) captureState() snapState {
	p := e.plan.Load()
	st := snapState{
		now:       e.Now(),
		from:      p.plannedFrom,
		revision:  p.revision,
		adoptions: e.adoptions.Load(),
		exposures: e.exposures.Load(),
		replans:   e.replans.Load(),
		revenue:   p.revenue,
		stock:     make([]int64, len(e.stock)),
		plan:      p.flat,
	}
	for i := range e.stock {
		st.stock[i] = e.stock[i].Load()
	}
	st.users = model.CloneUsers(e.users)
	// The price table must be copied, not shared: ScalePrice mutates it
	// from the loop, and the encoding runs on the caller's goroutine
	// after this capture returns — encoding the live pointer would race
	// with any rescale arriving mid-encode and could tear a half-applied
	// repricing into the image. Everything else on the instance is
	// immutable, and so is the installed plan, so the price-deep copy
	// (taken here, between applies) is a consistent image without
	// stalling the loop on a full candidate-set clone.
	st.in = e.in.ClonePrices()
	if e.st != nil {
		st.lsn = e.st.NextLSN()
	}
	return st
}

// Snapshot writes a restartable image of the engine to w. The mutable
// state is captured by the feedback loop between event applications, so
// the image is consistent (an adoption is either fully present — user
// state and stock — or fully absent) even under concurrent Feed
// traffic; call Flush first if queued-but-unapplied events must be
// included. Serving continues throughout; only feedback application
// pauses for the capture.
func (e *Engine) Snapshot(w io.Writer) error {
	st, err := e.capture()
	if err != nil {
		return err
	}
	return e.encodeSnapshot(w, st)
}

// capture obtains one consistent snapState (askLoop); a loop in
// crash-discard mode answers with no instance.
func (e *Engine) capture() (snapState, error) {
	return askLoop(e, func(ch chan snapState) feedbackMsg { return feedbackMsg{snap: ch} },
		e.captureState, func(st snapState) bool { return st.in != nil })
}

// encodeSnapshot serializes a captured state. The captured instance and
// plan are immutable (or deep copies), so the encoding happens outside
// the feedback loop.
func (e *Engine) encodeSnapshot(w io.Writer, st snapState) error {
	_, err := w.Write(appendSnapshot(nil, st))
	return err
}

// appendSnapshot appends st's image, trailer included, to b.
func appendSnapshot(b []byte, st snapState) []byte {
	le := binary.LittleEndian
	start := len(b)
	b = append(b, snapMagic...)
	b = le.AppendUint32(b, SnapshotVersion)
	b = le.AppendUint32(b, uint32(st.now))
	b = le.AppendUint64(b, uint64(st.revision))
	b = le.AppendUint64(b, math.Float64bits(st.revenue))
	b = le.AppendUint32(b, uint32(st.from))
	b = le.AppendUint64(b, uint64(st.adoptions))
	b = le.AppendUint64(b, uint64(st.exposures))
	b = le.AppendUint64(b, uint64(st.replans))
	b = codec.AppendInstanceBinary(b, st.in)

	b = le.AppendUint32(b, uint32(len(st.stock)))
	for _, s := range st.stock {
		b = le.AppendUint64(b, uint64(s))
	}
	b = le.AppendUint32(b, uint32(st.plan.Len()))
	st.plan.Each(func(id model.CandID) bool {
		b = le.AppendUint32(b, uint32(id))
		return true
	})

	var observed []model.UserID // users with any history, ascending
	for u := range st.users {
		if !st.users[u].Empty() {
			observed = append(observed, model.UserID(u))
		}
	}
	b = le.AppendUint32(b, uint32(len(observed)))
	for _, u := range observed {
		b = le.AppendUint32(b, uint32(u))
	}
	for _, u := range observed {
		b = le.AppendUint32(b, uint32(len(st.users[u].Adopted)))
	}
	for _, u := range observed {
		for _, c := range st.users[u].Adopted {
			b = le.AppendUint32(b, uint32(c))
		}
	}
	for _, u := range observed {
		b = le.AppendUint32(b, uint32(len(st.users[u].Exposed)))
	}
	for _, u := range observed {
		for _, ce := range st.users[u].Exposed {
			b = le.AppendUint32(b, uint32(ce.Class))
		}
	}
	for _, u := range observed {
		for _, ce := range st.users[u].Exposed {
			b = le.AppendUint32(b, uint32(len(ce.Times)))
		}
	}
	for _, u := range observed {
		for _, ce := range st.users[u].Exposed {
			for _, t := range ce.Times {
				b = le.AppendUint32(b, uint32(t))
			}
		}
	}
	return le.AppendUint32(b, store.Checksum(b[start:]))
}

// Restore rebuilds an engine from a snapshot produced by Snapshot. The
// restored engine serves the snapshotted plan immediately — no replan
// happens at boot, so recommendations are byte-identical to the
// pre-snapshot engine's — and the feedback loop resumes with the
// restored state as its baseline. cfg still selects the algorithm used
// for future replans (the snapshot does not record one).
func Restore(r io.Reader, cfg Config) (*Engine, error) {
	if cfg.Durability != nil && cfg.Durability.Dir != "" {
		return nil, errors.New("serve: durable engines must be created with Open (Restore is the in-memory warm-restart path)")
	}
	e, err := decodeShell(r, cfg)
	if err != nil {
		return nil, err
	}
	e.start()
	return e, nil
}

// decodeShell rebuilds an engine from a snapshot image but does not
// start its feedback loop: Restore starts it immediately, while durable
// recovery first replays the WAL tail on the still-single-threaded
// shell. The snapshotted plan is installed verbatim (with its revision,
// so monitoring sees continuity).
func decodeShell(r io.Reader, cfg Config) (*Engine, error) {
	rp, err := cfg.planSetup()
	if err != nil {
		return nil, err
	}
	img, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("serve: snapshot read: %w", err)
	}
	st, err := parseSnapshot(img)
	if err != nil {
		return nil, err
	}
	e := newEngineShell(st.in, cfg, rp)
	e.now.Store(int64(st.now))
	e.adoptions.Store(st.adoptions)
	e.exposures.Store(st.exposures)
	e.replans.Store(st.replans)
	for i, s := range st.stock {
		e.stock[i].Store(s)
	}
	e.users = st.users
	e.revision.Store(st.revision - 1)
	e.installPlan(buildPlanFlat(st.in, st.plan, st.from, st.revenue))
	if !e.installOnly {
		e.rp.Seed(st.plan)
	}
	return e, nil
}

// parseSnapshot decodes a whole snapshot image. The trailer is checked
// before anything else is read, and every count before anything is
// allocated for it; a v1 (JSON) image is named as such. The plan is
// rebuilt by ascending Adds, so a CandID that is out of range,
// repeated or out of order fails the parse.
func parseSnapshot(img []byte) (snapState, error) {
	var st snapState
	if len(img) > 0 && img[0] == '{' {
		return st, fmt.Errorf("serve: snapshot is a version 1 (JSON) image; this build reads version %d only", SnapshotVersion)
	}
	if len(img) < snapHeaderLen+4 || string(img[:len(snapMagic)]) != snapMagic {
		return st, errors.New("serve: not a snapshot image (bad magic or too short)")
	}
	body := img[:len(img)-4]
	if sum := binary.LittleEndian.Uint32(img[len(body):]); store.Checksum(body) != sum {
		return st, errors.New("serve: snapshot checksum mismatch")
	}
	c := codec.NewCursor(body[len(snapMagic):])
	if v := c.U32(); v != SnapshotVersion {
		return st, fmt.Errorf("serve: unsupported snapshot version %d (want %d)", v, SnapshotVersion)
	}
	st.now = model.TimeStep(c.I32())
	st.revision = c.I64()
	st.revenue = c.F64()
	st.from = model.TimeStep(c.I32())
	st.adoptions, st.exposures, st.replans = c.I64(), c.I64(), c.I64()
	if err := c.Err(); err != nil {
		return st, fmt.Errorf("serve: snapshot scalars: %w", err)
	}
	in, rest, err := codec.DecodeInstanceBinary(c.Rest())
	if err != nil {
		return st, fmt.Errorf("serve: snapshot instance: %w", err)
	}
	st.in = in
	if st.now < 1 || int(st.now) > in.T {
		return st, fmt.Errorf("serve: snapshot clock %d outside horizon [1,%d]", st.now, in.T)
	}

	c = codec.NewCursor(rest)
	n := c.Count(8, "stock")
	if c.Err() == nil && n != in.NumItems() {
		return st, fmt.Errorf("serve: snapshot has %d stock entries for %d items", n, in.NumItems())
	}
	st.stock = make([]int64, n)
	for i := range st.stock {
		st.stock[i] = c.I64()
	}
	if err := c.Err(); err != nil {
		return st, fmt.Errorf("serve: snapshot stock: %w", err)
	}

	n = c.Count(4, "plan")
	st.plan = in.NewPlan()
	prev := int64(-1)
	for k := 0; k < n; k++ {
		id := int64(c.U32())
		if id <= prev || id >= int64(in.NumCands()) {
			return st, fmt.Errorf("serve: snapshot plan CandID %d after %d is out of range [0,%d) or not ascending", id, prev, in.NumCands())
		}
		st.plan.Add(model.CandID(id))
		prev = id
	}
	if err := c.Err(); err != nil {
		return st, fmt.Errorf("serve: snapshot plan: %w", err)
	}

	if err := parseFeedback(c, &st); err != nil {
		return st, err
	}
	if c.Len() != 0 {
		return st, fmt.Errorf("serve: snapshot has %d bytes after the feedback section", c.Len())
	}
	return st, nil
}

// parseFeedback decodes the feedback section into st.users, one entry
// per user of st.in. Listed users must be known to st.in, ascend, and
// hold at least one adopted or exposed class (a live engine never
// records an empty history, and re-encoding would drop one); classes
// ascend within each user.
func parseFeedback(c *codec.Cursor, st *snapState) error {
	nu := c.Count(4+4+4, "feedback user")
	ids := make([]model.UserID, nu)
	for k := range ids {
		u := model.UserID(c.I32())
		if c.Err() == nil && (int(u) < 0 || int(u) >= st.in.NumUsers || k > 0 && u <= ids[k-1]) {
			return fmt.Errorf("serve: snapshot state for unknown or out-of-order user %d", u)
		}
		ids[k] = u
	}
	adopted, err := classRuns(c, nu)
	if err != nil {
		return err
	}
	exposed, err := classRuns(c, nu)
	if err != nil {
		return err
	}
	var runs []int // one time count per exposed class
	for k, cs := range exposed {
		if len(cs) == 0 && len(adopted[k]) == 0 {
			return fmt.Errorf("serve: snapshot feedback user %d has no adopted or exposed class", ids[k])
		}
		for range cs {
			runs = append(runs, int(c.U32()))
		}
	}
	var total uint64
	for _, n := range runs {
		total += uint64(n)
	}
	if err := c.Err(); err != nil {
		return fmt.Errorf("serve: snapshot feedback: %w", err)
	}
	if total > uint64(c.Len())/4 {
		return fmt.Errorf("serve: snapshot feedback holds %d exposure times, %d bytes remain", total, c.Len())
	}
	times := make([]model.TimeStep, total)
	for i := range times {
		times[i] = model.TimeStep(c.I32())
	}
	lists := make([]model.ClassExposures, len(runs))
	for i, n := range runs {
		lists[i].Times, times = times[:n:n], times[n:]
	}
	st.users = make([]model.UserFeedback, st.in.NumUsers)
	for k, u := range ids {
		f := &st.users[u]
		f.Adopted = adopted[k]
		if n := len(exposed[k]); n > 0 {
			f.Exposed, lists = lists[:n:n], lists[n:]
			for j, cl := range exposed[k] {
				f.Exposed[j].Class = cl
			}
		}
	}
	return nil
}

// classRuns reads one class count per user and then the classes they
// count, strictly ascending within each user's run; a zero count is a
// nil run.
func classRuns(c *codec.Cursor, users int) ([][]model.ClassID, error) {
	counts := make([]int, users)
	var total uint64
	for u := range counts {
		counts[u] = int(c.U32())
		total += uint64(counts[u])
	}
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("serve: snapshot feedback: %w", err)
	}
	if total > uint64(c.Len())/4 {
		return nil, fmt.Errorf("serve: snapshot feedback holds %d classes, %d bytes remain", total, c.Len())
	}
	all := make([]model.ClassID, total)
	for i := range all {
		all[i] = model.ClassID(c.I32())
	}
	runs := make([][]model.ClassID, users)
	for u, n := range counts {
		if n == 0 {
			continue
		}
		runs[u], all = all[:n:n], all[n:]
		for j := 1; j < n; j++ {
			if runs[u][j] <= runs[u][j-1] {
				return nil, fmt.Errorf("serve: snapshot classes of feedback user %d are not ascending", u)
			}
		}
	}
	return runs, nil
}
