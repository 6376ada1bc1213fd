// The coordinator owns the only genuinely cross-shard state of a
// cluster: per-item remaining stock and, through the global solve, the
// per-item distinct-user display quotas. Everything else in the REVMAX
// problem — display slots, adopted classes, saturation memory — is
// user-local and lives untouched on the owning shard.
//
// Stock flows as optimistic reservations. The coordinator grants every
// shard a view of each item's remaining stock (initially the full
// capacity) by pushing it through the shard engine's SetStock path, so
// the grant is appended to that shard's write-ahead log before it is
// applied — a recovered shard replays its grants and local drawdowns
// and comes back with exactly the view it crashed with. Shards draw
// their views down locally and lock-free as adoptions arrive (floored
// at zero, like any engine). At every flush barrier the coordinator
// reconciles: each shard's drawdown since its last grant is subtracted
// from the authoritative remainder R (floored at zero), the new R is
// appended to the coordinator's own log, and diverged views are
// re-granted. Because views are clipped at zero, the reconciled R is
// identical to what a single engine reaches applying the same
// adoptions sequentially: max(0, R − Σ min(R, nₖ)) = max(0, R − Σ nₖ).
package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/obs"
	"repro/internal/store"
)

// coordSnapshotVersion is bumped on breaking changes to the
// coordinator's snapshot format.
const coordSnapshotVersion = 1

// coordWire is the JSON envelope of a coordinator snapshot: the
// authoritative per-item stock ledger plus the shard count the layout
// was written under (recovery refuses a mismatched -shards).
type coordWire struct {
	Version int     `json:"version"`
	Shards  int     `json:"shards"`
	Stock   []int64 `json:"stock"`
}

// coordinator holds the reservation ledger. All fields are guarded by
// the owning Cluster's mutex; only the metric instruments are read
// concurrently (at scrape time).
type coordinator struct {
	n     int
	stock []int64 // authoritative remaining stock R per item
	// pushed[k][i] is the optimistic view last granted to shard k —
	// the baseline its next drawdown is measured against.
	pushed [][]int64

	// st, when non-nil, is the coordinator's durable ledger: every
	// reconciled or overridden stock value is appended (as a RecSetStock
	// record) before the matching grants go out, and snapshots anchor
	// recovery exactly like an engine's.
	st  *store.Store
	err error // first ledger failure, sticky

	reg         *obs.Registry
	reconciles  *obs.Counter
	regrants    *obs.Counter
	replansC    *obs.Counter
	outstanding *obs.Gauge
	remaining   *obs.Gauge
	barrierSec  *obs.Histogram
}

func newCoordinator(n, items int, capacity func(int) int64) *coordinator {
	reg := obs.NewRegistry()
	co := &coordinator{
		n:      n,
		stock:  make([]int64, items),
		pushed: make([][]int64, n),
		reg:    reg,
		reconciles: reg.Counter("revmaxd_cluster_reconcile_rounds_total",
			"Reservation-reconcile rounds run at flush barriers."),
		regrants: reg.Counter("revmaxd_cluster_regrants_total",
			"Optimistic stock views re-granted to shards after reconciliation."),
		replansC: reg.Counter("revmaxd_cluster_replans_total",
			"Coordinated cluster-wide replans."),
		outstanding: reg.Gauge("revmaxd_cluster_outstanding_reservations",
			"Stock units reserved across shards beyond the authoritative remainder (grant optimism)."),
		remaining: reg.Gauge("revmaxd_cluster_stock_remaining",
			"Authoritative remaining stock summed over items."),
		barrierSec: reg.Histogram("revmaxd_cluster_barrier_seconds",
			"Coordinated flush-barrier duration (drain, reconcile, replan, install). No-op ticks are not observed.",
			obs.LatencyBuckets()),
	}
	for i := range co.stock {
		co.stock[i] = capacity(i)
	}
	for k := range co.pushed {
		co.pushed[k] = append([]int64(nil), co.stock...)
	}
	co.updateGauges()
	return co
}

// updateGauges recomputes the reservation gauges from the ledger; call
// after every reconcile, grant, or override (cluster mutex held).
func (co *coordinator) updateGauges() {
	var total, granted int64
	for _, r := range co.stock {
		total += r
	}
	for k := range co.pushed {
		for _, v := range co.pushed[k] {
			granted += v
		}
	}
	co.remaining.Set(float64(total))
	co.outstanding.Set(float64(granted - total))
}

// setErr records the first durable-ledger failure.
func (co *coordinator) setErr(err error) {
	if co.err == nil && err != nil && !errors.Is(err, store.ErrClosed) {
		co.err = err
	}
}

// logStock appends one authoritative stock value to the durable ledger
// (no-op for in-memory clusters). Log-then-grant: the append precedes
// the SetStock pushes that depend on it.
func (co *coordinator) logStock(item int, r int64) {
	if co.st == nil {
		return
	}
	if _, err := co.st.Append(store.Record{Type: store.RecSetStock, Item: int32(item), Stock: r}); err != nil {
		co.setErr(err)
	}
}

// sync forces the ledger to stable storage (group commit at barriers).
func (co *coordinator) sync() {
	if co.st == nil {
		return
	}
	if err := co.st.Sync(); err != nil {
		co.setErr(err)
	}
}

// snapshot writes the coordinator's current ledger to the durable
// store, anchored at the log position it is consistent with, and
// compacts the log below it.
func (co *coordinator) snapshot() error {
	if co.st == nil {
		return nil
	}
	wire := coordWire{Version: coordSnapshotVersion, Shards: co.n, Stock: append([]int64(nil), co.stock...)}
	return co.st.WriteSnapshot(co.st.NextLSN(), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(wire)
	})
}

// recoverLedger rebuilds the stock ledger from the newest valid
// snapshot plus the log tail. Pushed views are reset to the recovered
// remainder; the caller's first reconcile measures the shards' replayed
// views against it.
func (co *coordinator) recoverLedger() error {
	snaps := co.st.Snapshots()
	if len(snaps) == 0 {
		return fmt.Errorf("cluster: coordinator dir %q has records but no snapshot", co.st.Dir())
	}
	var firstErr error
	for i := len(snaps) - 1; i >= 0; i-- {
		if err := co.recoverFrom(snaps[i]); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		return nil
	}
	return fmt.Errorf("cluster: coordinator recovery failed from every retained snapshot: %w", firstErr)
}

func (co *coordinator) recoverFrom(lsn store.LSN) error {
	rc, err := co.st.OpenSnapshot(lsn)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		return err
	}
	var wire coordWire
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&wire); err != nil {
		return fmt.Errorf("cluster: coordinator snapshot %d: %w", lsn, err)
	}
	if wire.Version != coordSnapshotVersion {
		return fmt.Errorf("cluster: unsupported coordinator snapshot version %d (want %d)", wire.Version, coordSnapshotVersion)
	}
	if wire.Shards != co.n {
		return fmt.Errorf("cluster: durable layout was written with %d shards, booted with %d", wire.Shards, co.n)
	}
	if len(wire.Stock) != len(co.stock) {
		return fmt.Errorf("cluster: coordinator snapshot has %d items, engines recovered %d", len(wire.Stock), len(co.stock))
	}
	copy(co.stock, wire.Stock)
	if _, err := co.st.Replay(lsn, func(_ store.LSN, rec store.Record) error {
		if rec.Type != store.RecSetStock {
			return fmt.Errorf("cluster: coordinator log holds record of unexpected type %d", rec.Type)
		}
		if int(rec.Item) < 0 || int(rec.Item) >= len(co.stock) {
			return fmt.Errorf("cluster: coordinator log references unknown item %d", rec.Item)
		}
		n := rec.Stock
		if n < 0 {
			n = 0
		}
		co.stock[rec.Item] = n
		return nil
	}); err != nil {
		return err
	}
	for k := range co.pushed {
		copy(co.pushed[k], co.stock)
	}
	co.updateGauges()
	return nil
}
