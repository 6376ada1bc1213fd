package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/codec"
	"repro/internal/model"
	"repro/internal/store"
)

// SnapshotVersion is bumped on breaking changes to the snapshot format.
const SnapshotVersion = 1

// snapshotWire is the JSON envelope of an engine snapshot: the instance
// and live strategy in the shared codec formats, plus the serving state
// a warm restart needs (clock, stock, per-user feedback, counters).
type snapshotWire struct {
	Version   int             `json:"version"`
	Now       int32           `json:"now"`
	Revision  int64           `json:"plan_revision"`
	Revenue   float64         `json:"plan_revenue"`
	From      int32           `json:"planned_from"`
	Adoptions int64           `json:"adoptions"`
	Exposures int64           `json:"exposures"`
	Replans   int64           `json:"replans"`
	Stock     []int64         `json:"stock"`
	Users     []userWire      `json:"user_state,omitempty"`
	Instance  json.RawMessage `json:"instance"`
	Strategy  json.RawMessage `json:"strategy"`
}

type userWire struct {
	User      int32          `json:"user"`
	Adopted   []int32        `json:"adopted_classes,omitempty"`
	Exposures []exposureWire `json:"exposures,omitempty"`
}

type exposureWire struct {
	Class int32   `json:"class"`
	Times []int32 `json:"times"`
}

// snapState is one consistent capture of the engine's mutable state:
// the wire envelope (sans instance/strategy blobs), the plan and
// instance that were live at capture time, and — for durable engines —
// the WAL position the capture is consistent with. The plan is carried
// by pointer: the capture runs on the feedback loop, and materializing
// a lazy plan's strategy is the encoding goroutine's job.
type snapState struct {
	wire *snapshotWire
	plan *plan
	in   *model.Instance
	lsn  store.LSN
}

// captureState builds a snapState. It is normally executed *by the
// feedback loop* between event applications, so stock and per-user
// state can never reflect a half-applied adoption; after Close (loop
// gone, no writers left) it is safe to call directly.
func (e *Engine) captureState() snapState {
	p := e.plan.Load()
	wire := &snapshotWire{
		Version:   SnapshotVersion,
		Now:       int32(e.Now()),
		Revision:  p.revision,
		Revenue:   p.revenue,
		From:      int32(p.plannedFrom),
		Adoptions: e.adoptions.Load(),
		Exposures: e.exposures.Load(),
		Replans:   e.replans.Load(),
		Stock:     make([]int64, len(e.stock)),
	}
	for i := range e.stock {
		wire.Stock[i] = e.stock[i].Load()
	}
	for si := range e.shards {
		sh := &e.shards[si]
		sh.mu.RLock()
		for u, us := range sh.users {
			uw := userWire{User: int32(u)}
			for c := range us.adopted {
				uw.Adopted = append(uw.Adopted, int32(c))
			}
			sort.Slice(uw.Adopted, func(a, b int) bool { return uw.Adopted[a] < uw.Adopted[b] })
			for c, ts := range us.exposures {
				ew := exposureWire{Class: int32(c)}
				for _, t := range ts {
					ew.Times = append(ew.Times, int32(t))
				}
				uw.Exposures = append(uw.Exposures, ew)
			}
			sort.Slice(uw.Exposures, func(a, b int) bool { return uw.Exposures[a].Class < uw.Exposures[b].Class })
			wire.Users = append(wire.Users, uw)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(wire.Users, func(a, b int) bool { return wire.Users[a].User < wire.Users[b].User })
	// The price table must be copied, not shared: ScalePrice mutates it
	// from the loop, and the (slow) JSON encoding runs on the caller's
	// goroutine after this capture returns — encoding the live pointer
	// would race with any rescale arriving mid-encode and could tear a
	// half-applied repricing into the image. Everything else on the
	// instance is immutable, so the price-deep copy (taken here,
	// between applies) is a consistent image without stalling the loop
	// on a full candidate-set clone.
	st := snapState{wire: wire, plan: p, in: e.in.ClonePrices()}
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

// capture obtains one consistent snapState: through the feedback loop
// while it runs, directly once the engine is closed (no writers left).
func (e *Engine) capture() (snapState, error) {
	e.closeMu.RLock()
	if e.closed.Load() {
		e.closeMu.RUnlock()
		// The loop may still be draining buffered events after Close;
		// wait for it to exit so no apply is in flight mid-capture.
		e.wg.Wait()
		if e.killed.Load() {
			return snapState{}, ErrKilled
		}
		return e.captureState(), nil
	}
	ch := make(chan snapState, 1)
	e.feedback <- feedbackMsg{snap: ch}
	e.closeMu.RUnlock()
	st := <-ch
	if st.wire == nil {
		// The loop answered in crash-discard mode.
		return snapState{}, ErrKilled
	}
	return st, nil
}

// encodeSnapshot serializes a captured state. The captured instance and
// strategy are immutable (or deep copies), so the (comparatively slow)
// JSON encoding happens outside the feedback loop.
func (e *Engine) encodeSnapshot(w io.Writer, st snapState) error {
	wire := st.wire
	var buf bytes.Buffer
	if err := codec.EncodeInstance(&buf, st.in); err != nil {
		return fmt.Errorf("serve: snapshot instance: %w", err)
	}
	wire.Instance = append(json.RawMessage(nil), bytes.TrimSpace(buf.Bytes())...)
	buf.Reset()
	// A throwaway Strategy, not the plan's cached one: the live plan
	// keeps its map only for Engine.Strategy callers.
	if err := codec.EncodeStrategy(&buf, st.plan.flat.Strategy()); err != nil {
		return fmt.Errorf("serve: snapshot strategy: %w", err)
	}
	wire.Strategy = append(json.RawMessage(nil), bytes.TrimSpace(buf.Bytes())...)
	return json.NewEncoder(w).Encode(wire)
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
	opts, err := cfg.planSetup()
	if err != nil {
		return nil, err
	}
	var wire snapshotWire
	if err := json.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("serve: snapshot decode: %w", err)
	}
	if wire.Version != SnapshotVersion {
		return nil, fmt.Errorf("serve: unsupported snapshot version %d (want %d)", wire.Version, SnapshotVersion)
	}
	in, err := codec.DecodeInstance(bytes.NewReader(wire.Instance))
	if err != nil {
		return nil, fmt.Errorf("serve: snapshot instance: %w", err)
	}
	strat, err := codec.DecodeStrategy(bytes.NewReader(wire.Strategy))
	if err != nil {
		return nil, fmt.Errorf("serve: snapshot strategy: %w", err)
	}
	// DecodeStrategy does no range checking; PlanOf does, and a triple
	// that is not a candidate — corrupt, since only candidate-indexed
	// plans are ever served — fails the restore here.
	fp, ok := in.PlanOf(strat)
	if !ok {
		return nil, errors.New("serve: snapshot strategy holds a triple that is not a candidate")
	}
	if len(wire.Stock) != in.NumItems() {
		return nil, fmt.Errorf("serve: snapshot has %d stock entries for %d items", len(wire.Stock), in.NumItems())
	}
	if wire.Now < 1 || int(wire.Now) > in.T {
		return nil, fmt.Errorf("serve: snapshot clock %d outside horizon [1,%d]", wire.Now, in.T)
	}

	e := newEngineShell(in, cfg, opts)
	e.now.Store(int64(wire.Now))
	e.adoptions.Store(wire.Adoptions)
	e.exposures.Store(wire.Exposures)
	e.replans.Store(wire.Replans)
	for i, s := range wire.Stock {
		e.stock[i].Store(s)
	}
	for _, uw := range wire.Users {
		u := model.UserID(uw.User)
		if int(u) < 0 || int(u) >= in.NumUsers {
			return nil, fmt.Errorf("serve: snapshot state for unknown user %d", uw.User)
		}
		sh := &e.shards[shardIndex(u, e.mask)]
		us := sh.state(u)
		for _, c := range uw.Adopted {
			us.adopted[model.ClassID(c)] = true
		}
		for _, ew := range uw.Exposures {
			ts := make([]model.TimeStep, len(ew.Times))
			for i, t := range ew.Times {
				ts[i] = model.TimeStep(t)
			}
			us.exposures[model.ClassID(ew.Class)] = ts
		}
	}
	e.revision.Store(wire.Revision - 1)
	e.installPlan(buildPlanFlat(in, fp, model.TimeStep(wire.From), wire.Revenue))
	return e, nil
}
