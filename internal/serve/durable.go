package serve

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/store"
)

// Durability configures an engine's durable state (see internal/store).
// The write path is log-then-apply: the feedback loop appends every
// state mutation — adoption events, stock overrides, clock advances,
// price rescales — to the write-ahead log before applying it, and every
// Flush barrier doubles as a group-commit fsync, so anything a caller
// has Flushed survives kill -9. Snapshots anchor recovery and truncate
// the log.
type Durability struct {
	// Dir is the data directory (WAL segments + snapshots). Empty
	// disables durability.
	Dir string
	// Sync is the WAL fsync policy (default store.SyncBatch: one fsync
	// per flush barrier, shared by every append since the last).
	Sync store.SyncPolicy
	// SyncInterval, under SyncBatch, bounds the unsynced window with a
	// background fsync ticker. 0 relies on barriers alone.
	SyncInterval time.Duration
	// SegmentBytes rotates WAL segments at this size (≤ 0 means 4 MiB).
	SegmentBytes int64
	// SnapshotInterval periodically checkpoints the engine — a
	// consistent snapshot written to the store, which then compacts the
	// log below it. 0 disables background checkpoints; one final
	// snapshot is still written on graceful Close.
	SnapshotInterval time.Duration
}

func (d *Durability) storeOptions(reg *obs.Registry) store.Options {
	return store.Options{SyncPolicy: d.Sync, SyncInterval: d.SyncInterval, SegmentBytes: d.SegmentBytes, Metrics: reg}
}

// Open is the durable-engine constructor and recovery entry point.
//
// Without a Durability config it is exactly NewEngine. With one, it
// opens the data directory and either (a) recovers: loads the newest
// valid snapshot, replays the WAL tail through the same code paths live
// feedback takes, tolerates a torn final record, replans once if the
// tail moved state past the snapshot, and resumes serving — or (b), if
// the directory holds no state, boots fresh from in, stamping a base
// snapshot before serving so recovery always finds an instance on disk.
//
// in may be nil when recovering (the instance comes from the
// snapshot); if both in and recoverable state exist, the state wins —
// a daemon restart must not silently re-generate its world.
func Open(in *model.Instance, cfg Config) (*Engine, error) {
	d := cfg.Durability
	if d == nil || d.Dir == "" {
		if in == nil {
			return nil, errors.New("serve: nil instance and no durable state configured")
		}
		return NewEngine(in, cfg)
	}
	// Build the observability pair before the store so WAL metrics land
	// on the same registry the engine serves over /metrics.
	if cfg.obsReg == nil {
		cfg.obsReg = obs.NewRegistry()
	}
	if cfg.obsTracer == nil {
		cfg.obsTracer = obs.NewTracer(64)
	}
	st, err := store.Open(d.Dir, d.storeOptions(cfg.obsReg))
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if st.HasState() {
		e, err := recoverEngine(st, cfg)
		if err != nil {
			st.Close()
			return nil, err
		}
		return e, nil
	}
	if in == nil {
		st.Close()
		return nil, fmt.Errorf("serve: data dir %q holds no recoverable state and no instance was provided", d.Dir)
	}
	e, err := newUnstartedEngine(in, cfg)
	if err != nil {
		st.Close()
		return nil, err
	}
	e.st = st
	if err := e.writeStoreSnapshot(e.captureState()); err != nil {
		st.Close()
		return nil, fmt.Errorf("serve: base snapshot: %w", err)
	}
	e.start()
	e.startSnapshotter(d)
	return e, nil
}

// recoverEngine rebuilds an engine from st: newest snapshot first,
// falling back one generation if the newest is unreadable (the store
// retains two), then WAL replay from the snapshot's LSN.
func recoverEngine(st *store.Store, cfg Config) (*Engine, error) {
	snaps := st.Snapshots()
	if len(snaps) == 0 {
		return nil, fmt.Errorf("serve: data dir %q has WAL records but no snapshot to anchor recovery", st.Dir())
	}
	var firstErr error
	for i := len(snaps) - 1; i >= 0; i-- {
		e, err := recoverFrom(st, snaps[i], cfg)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		e.startSnapshotter(cfg.Durability)
		return e, nil
	}
	return nil, fmt.Errorf("serve: recovery failed from every retained snapshot: %w", firstErr)
}

func recoverFrom(st *store.Store, lsn store.LSN, cfg Config) (*Engine, error) {
	rc, err := st.OpenSnapshot(lsn)
	if err != nil {
		return nil, fmt.Errorf("serve: snapshot %d: %w", lsn, err)
	}
	e, err := decodeShell(rc, cfg)
	rc.Close()
	if err != nil {
		return nil, fmt.Errorf("serve: snapshot %d: %w", lsn, err)
	}
	e.st = st
	// Replay takes the live path, check then applyRecord: a record live
	// traffic would refuse aborts recovery from this snapshot.
	stats, err := st.Replay(lsn, func(at store.LSN, rec store.Record) error {
		if err := e.check(rec); err != nil {
			return fmt.Errorf("replayed record %d: %w", at, err)
		}
		e.applyRecord(rec)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("serve: replay from %d: %w", lsn, err)
	}
	if stats.Records > 0 && !e.installOnly {
		// The tail moved state past the snapshotted plan; replan once at
		// boot so the served plan reflects what was recovered. The replan
		// is synchronous — the engine never serves a stale plan — and
		// traced, so /debug/traces shows the recovery replan right away.
		// An install-only engine serves the snapshotted plan until its
		// planner installs the next one.
		e.replanWith(e.collectFeedback(), nil, e.met.tracer.Start("replan"))
	}
	e.start()
	return e, nil
}

// writeStoreSnapshot persists a captured state to the durable store,
// stamped with the WAL position it is consistent with; the store then
// compacts the log below the retained snapshots.
func (e *Engine) writeStoreSnapshot(st snapState) error {
	return e.st.WriteSnapshot(st.lsn, func(w io.Writer) error {
		return e.encodeSnapshot(w, st)
	})
}

// Checkpoint captures a consistent image of the engine — through the
// feedback loop, so no event is half-applied — writes it to the
// durable store, and compacts the WAL below it. Serving and feedback
// ingestion continue throughout; only the capture itself (a state copy,
// not the encoding) runs inside the loop.
func (e *Engine) Checkpoint() error {
	if e.st == nil {
		return errors.New("serve: Checkpoint on an engine without durable state")
	}
	st, err := e.capture()
	if err != nil {
		return err
	}
	return e.writeStoreSnapshot(st)
}

// startSnapshotter launches the periodic background checkpointer.
func (e *Engine) startSnapshotter(d *Durability) {
	if d == nil || d.SnapshotInterval <= 0 {
		return
	}
	e.snapStop = make(chan struct{})
	e.snapWG.Add(1)
	go func() {
		defer e.snapWG.Done()
		tick := time.NewTicker(d.SnapshotInterval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if err := e.Checkpoint(); err != nil && !errors.Is(err, store.ErrClosed) {
					e.setWALErr(err)
				}
			case <-e.snapStop:
				return
			}
		}
	}()
}
