package serve

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/store"
)

// durCfg returns a Config with durability rooted at dir and small
// segments so rotation is exercised even by short tests.
func durCfg(dir string) Config {
	return Config{
		Shards:      4,
		ReplanEvery: 8,
		Durability:  &Durability{Dir: dir, SegmentBytes: 2048},
	}
}

// feedScript drives eng through a deterministic mixed workload: events
// (some adopting), a stock override, a price rescale, and a clock
// advance, with flush barriers at step boundaries.
func feedScript(t *testing.T, eng *Engine, in *model.Instance, seed uint64, steps int) {
	t.Helper()
	rng := dist.NewRNG(seed)
	for s := 0; s < steps; s++ {
		ts := eng.Now() // resumes wherever a previous script left the clock
		for k := 0; k < 12; k++ {
			ev := Event{
				User:    model.UserID(rng.Intn(in.NumUsers)),
				Item:    model.ItemID(rng.Intn(in.NumItems())),
				T:       ts,
				Adopted: rng.Intn(3) == 0,
			}
			if err := eng.Feed(ev); err != nil {
				t.Fatal(err)
			}
		}
		if s == 1 {
			if err := eng.SetStock(model.ItemID(1), 2); err != nil {
				t.Fatal(err)
			}
			if err := eng.ScalePrice(model.ItemID(0), ts, 0.5); err != nil {
				t.Fatal(err)
			}
		}
		if int(ts) < in.T {
			if err := eng.SetNow(ts + 1); err != nil {
				t.Fatal(err)
			}
		}
		eng.Flush()
	}
}

func TestOpenWithoutDurabilityIsNewEngine(t *testing.T) {
	in := testInstance(t, 40, 6, 4, 2, 11)
	e, err := Open(in, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if st := e.Stats(); st.Durable || st.WALNextLSN != 0 {
		t.Fatalf("pure engine reports durable stats: %+v", st)
	}
	if _, err := Open(nil, Config{}); err == nil {
		t.Fatal("Open(nil) without durability must fail")
	}
}

func TestNewEngineRejectsDurableConfig(t *testing.T) {
	in := testInstance(t, 20, 4, 3, 2, 12)
	if _, err := NewEngine(in, durCfg(t.TempDir())); err == nil {
		t.Fatal("NewEngine accepted a durable config")
	}
	if _, err := Restore(strings.NewReader("{}"), durCfg(t.TempDir())); err == nil {
		t.Fatal("Restore accepted a durable config")
	}
}

func TestFreshBootWritesBaseSnapshot(t *testing.T) {
	in := testInstance(t, 40, 6, 4, 2, 13)
	dir := t.TempDir()
	e, err := Open(in, durCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if st := e.Stats(); !st.Durable {
		t.Fatal("durable engine does not report Durable")
	}
	found := false
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if strings.HasSuffix(ent.Name(), ".snap") {
			found = true
		}
	}
	if !found {
		t.Fatal("fresh durable boot did not write a base snapshot")
	}
	if !store.DirHasState(dir) {
		t.Fatal("DirHasState does not see the base snapshot")
	}
}

// TestGracefulCloseReopenServesIdentical: a graceful Close writes a
// final snapshot; reopening must serve byte-identical recommendations
// without replanning.
func TestGracefulCloseReopenServesIdentical(t *testing.T) {
	in := testInstance(t, 60, 8, 4, 2, 14)
	dir := t.TempDir()
	cfg := durCfg(dir)
	e, err := Open(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedScript(t, e, in, 99, 3)
	want := make([][][]Recommendation, in.NumUsers)
	now := e.Now()
	for u := 0; u < in.NumUsers; u++ {
		want[u] = make([][]Recommendation, in.T+1)
		for ts := int(now); ts <= in.T; ts++ {
			recs, err := e.Recommend(model.UserID(u), model.TimeStep(ts))
			if err != nil {
				t.Fatal(err)
			}
			want[u][ts] = recs
		}
	}
	stats := e.Stats()
	e.Close()
	if err := e.Err(); err != nil {
		t.Fatalf("durability error after close: %v", err)
	}

	r, err := Open(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rstats := r.Stats()
	if rstats.Adoptions != stats.Adoptions || rstats.Exposures != stats.Exposures || rstats.Now != stats.Now {
		t.Fatalf("recovered counters %+v, want %+v", rstats, stats)
	}
	for u := 0; u < in.NumUsers; u++ {
		for ts := int(now); ts <= in.T; ts++ {
			recs, err := r.Recommend(model.UserID(u), model.TimeStep(ts))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(recs, want[u][ts]) {
				t.Fatalf("user %d t %d: recovered recs %+v, want %+v", u, ts, recs, want[u][ts])
			}
		}
	}
}

// TestKillRecoverMatchesInMemoryTwin: feed a durable engine and an
// in-memory twin identically, crash the durable one after a synced
// barrier, recover it, and require the recovered state to match the
// twin exactly — the WAL replay fidelity contract.
func TestKillRecoverMatchesInMemoryTwin(t *testing.T) {
	in := testInstance(t, 60, 8, 4, 2, 15)
	dir := t.TempDir()
	cfg := durCfg(dir)
	a, err := Open(in.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEngine(in.Clone(), Config{Shards: cfg.Shards, ReplanEvery: cfg.ReplanEvery})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	feedScript(t, a, in, 7, 3)
	feedScript(t, b, in, 7, 3)
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	a.Kill()

	a2, err := Open(nil, cfg)
	if err != nil {
		t.Fatalf("recovery after kill: %v", err)
	}
	defer a2.Close()
	// Recovery replanned at boot; force the twin onto a fresh replan of
	// the same state so the plans are comparable.
	if err := b.SetNow(b.Now()); err != nil {
		t.Fatal(err)
	}
	b.Flush()
	requireSameWire(t, wireOf(t, a2), wireOf(t, b), "recovered state diverged from in-memory twin")
}

// TestCheckpointCompactsLogAndRecovers: a mid-run Checkpoint must
// truncate the WAL below it without changing what recovery rebuilds.
func TestCheckpointCompactsLogAndRecovers(t *testing.T) {
	in := testInstance(t, 60, 8, 4, 2, 16)
	dir := t.TempDir()
	cfg := durCfg(dir)
	cfg.Durability.SegmentBytes = 512 // force many rotations
	a, err := Open(in.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEngine(in.Clone(), Config{Shards: cfg.Shards, ReplanEvery: cfg.ReplanEvery})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	feedScript(t, a, in, 21, 2)
	feedScript(t, b, in, 21, 2)
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	feedScript(t, a, in, 22, 1)
	feedScript(t, b, in, 22, 1)
	// A second checkpoint pushes the retention window (two newest
	// snapshots) past the base snapshot, making early segments dead.
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	feedScript(t, a, in, 23, 1)
	feedScript(t, b, in, 23, 1)
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	a.Kill()

	// The checkpoint must have compacted early segments away.
	segs := 0
	first := ""
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if strings.HasSuffix(ent.Name(), ".log") {
			if segs == 0 {
				first = ent.Name()
			}
			segs++
		}
	}
	if first == "wal-0000000000000000.log" {
		t.Fatal("checkpoint did not compact the log (segment 0 still present)")
	}

	a2, err := Open(nil, cfg)
	if err != nil {
		t.Fatalf("recovery after checkpoint+kill: %v", err)
	}
	defer a2.Close()
	if err := b.SetNow(b.Now()); err != nil {
		t.Fatal(err)
	}
	b.Flush()
	requireSameWire(t, wireOf(t, a2), wireOf(t, b), "recovered-from-checkpoint state diverged from in-memory twin")
}

// TestRecoveryFallsBackWhenNewestSnapshotCorrupt: trash the newest
// snapshot — unreadable bytes, or any of the image corruptions
// (snapCorruptions) — and recovery must reject it, fall back one
// generation and replay further.
func TestRecoveryFallsBackWhenNewestSnapshotCorrupt(t *testing.T) {
	in := testInstance(t, 60, 8, 4, 2, 17)
	cs := append([]snapCorruption{{"unreadable", "version 1", func(testing.TB, []byte) []byte { return []byte("{broken") }}}, snapCorruptions()...)
	for _, tc := range cs {
		t.Run(tc.name, func(t *testing.T) {
			testRecoveryFallsBack(t, in, tc)
		})
	}
}

func testRecoveryFallsBack(t *testing.T, in *model.Instance, c snapCorruption) {
	dir := t.TempDir()
	cfg := durCfg(dir)
	a, err := Open(in.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEngine(in.Clone(), Config{Shards: cfg.Shards, ReplanEvery: cfg.ReplanEvery})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	feedScript(t, a, in, 31, 2)
	feedScript(t, b, in, 31, 2)
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	feedScript(t, a, in, 32, 1)
	feedScript(t, b, in, 32, 1)
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	a.Kill()

	// Corrupt the newest snapshot file.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	newest := ""
	for _, ent := range entries {
		if strings.HasSuffix(ent.Name(), ".snap") && ent.Name() > newest {
			newest = ent.Name()
		}
	}
	if newest == "" {
		t.Fatal("no snapshot found")
	}
	path := filepath.Join(dir, newest)
	snap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := c.corrupt(t, snap)
	if _, err := decodeShell(bytes.NewReader(bad), cfg); err == nil || !strings.Contains(err.Error(), c.want) {
		t.Fatalf("corrupted newest snapshot: error %v, want one naming %q", err, c.want)
	}
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}

	a2, err := Open(nil, cfg)
	if err != nil {
		t.Fatalf("recovery with corrupt newest snapshot: %v", err)
	}
	defer a2.Close()
	if err := b.SetNow(b.Now()); err != nil {
		t.Fatal(err)
	}
	b.Flush()
	requireSameWire(t, wireOf(t, a2), wireOf(t, b), "fallback recovery diverged from in-memory twin")
}

// TestCloseDrainsUnflushedQueue: events enqueued but never flushed must
// still reach the final snapshot on graceful Close — the shutdown-drain
// contract revmaxd relies on.
func TestCloseDrainsUnflushedQueue(t *testing.T) {
	in := testInstance(t, 40, 6, 4, 2, 18)
	dir := t.TempDir()
	cfg := durCfg(dir)
	e, err := Open(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for k := 0; k < n; k++ {
		ev := Event{User: model.UserID(k % in.NumUsers), Item: model.ItemID(k % in.NumItems()), T: 1, Adopted: true}
		if err := e.Feed(ev); err != nil {
			t.Fatal(err)
		}
	}
	e.Close() // no Flush, no Sync: Close itself must drain and persist
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Stats().Exposures; got != n {
		t.Fatalf("recovered %d exposures, want %d (queue not drained into final snapshot)", got, n)
	}
}

// TestKillDropsUnsyncedTail: without a Sync barrier, a kill may lose
// recent events — but never corrupt the store or block recovery.
func TestKillDropsUnsyncedTail(t *testing.T) {
	in := testInstance(t, 40, 6, 4, 2, 19)
	dir := t.TempDir()
	cfg := durCfg(dir)
	e, err := Open(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 30; k++ {
		ev := Event{User: model.UserID(k % in.NumUsers), Item: model.ItemID(k % in.NumItems()), T: 1}
		if err := e.Feed(ev); err != nil {
			t.Fatal(err)
		}
	}
	e.Kill()
	r, err := Open(nil, cfg)
	if err != nil {
		t.Fatalf("recovery after dirty kill: %v", err)
	}
	defer r.Close()
	if got := r.Stats().Exposures; got > 30 {
		t.Fatalf("recovered %d exposures, more than were ever fed", got)
	}
}

func TestScalePriceValidationAndEffect(t *testing.T) {
	in := testInstance(t, 30, 5, 4, 2, 20)
	e := newTestEngine(t, in, Config{Shards: 2})
	if err := e.ScalePrice(model.ItemID(99), 1, 0.5); err == nil {
		t.Fatal("unknown item accepted")
	}
	if err := e.ScalePrice(model.ItemID(0), model.TimeStep(in.T+1), 0.5); err == nil {
		t.Fatal("out-of-horizon step accepted")
	}
	if err := e.ScalePrice(model.ItemID(0), 1, 0); err == nil {
		t.Fatal("zero factor accepted")
	}
	for _, f := range []float64{2 * maxPriceFactor, 0.5 / maxPriceFactor, math.MaxFloat64} {
		if err := e.ScalePrice(model.ItemID(0), 1, f); err == nil {
			t.Fatalf("factor %v accepted, outside [1/maxPriceFactor, maxPriceFactor]", f)
		}
	}
	p2, p3 := in.Price(0, 2), in.Price(0, 3)
	if err := e.ScalePrice(model.ItemID(0), 3, 0.5); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	if got := e.Instance().Price(0, 2); got != p2 {
		t.Fatalf("price before `from` changed: %v -> %v", p2, got)
	}
	if got, want := e.Instance().Price(0, 3), p3*0.5; got != want {
		t.Fatalf("price at `from` = %v, want %v", got, want)
	}
}

// TestRecoverRejectsForeignLog: a WAL record that live traffic would
// refuse — an entity outside the snapshot's instance, a step outside the
// horizon, a stock or price factor out of range — must abort recovery
// with the live check's error, not panic and not be applied.
func TestRecoverRejectsForeignLog(t *testing.T) {
	in := testInstance(t, 10, 3, 3, 2, 21)
	T := int32(in.T)
	for _, tc := range []struct {
		name string
		rec  store.Record
		want string
	}{
		{"event unknown user", store.Record{Type: store.RecEvent, User: 999, Item: 0, T: 1}, "unknown user"},
		{"event unknown item", store.Record{Type: store.RecEvent, User: 0, Item: 999, T: 1, Adopted: true}, "unknown item"},
		{"event t=0", store.Record{Type: store.RecEvent, User: 0, Item: 0, T: 0}, "outside horizon"},
		{"event t=T+1", store.Record{Type: store.RecEvent, User: 0, Item: 0, T: T + 1}, "outside horizon"},
		{"set-stock unknown item", store.Record{Type: store.RecSetStock, Item: 999, Stock: 1}, "unknown item"},
		{"set-stock negative", store.Record{Type: store.RecSetStock, Item: 0, Stock: -1}, "stock -1 out of range"},
		{"advance to 0", store.Record{Type: store.RecAdvance, T: 0}, "outside horizon"},
		{"advance to T+1", store.Record{Type: store.RecAdvance, T: T + 1}, "outside horizon"},
		{"scale-price unknown item", store.Record{Type: store.RecScalePrice, Item: 999, T: 1, Factor: 0.5}, "unknown item"},
		{"scale-price from 0", store.Record{Type: store.RecScalePrice, Item: 0, T: 0, Factor: 0.5}, "outside horizon"},
		{"scale-price from T+1", store.Record{Type: store.RecScalePrice, Item: 0, T: T + 1, Factor: 0.5}, "outside horizon"},
		{"scale-price factor 0", store.Record{Type: store.RecScalePrice, Item: 0, T: 1, Factor: 0}, "price factor"},
		{"scale-price factor -2", store.Record{Type: store.RecScalePrice, Item: 0, T: 1, Factor: -2}, "price factor"},
		{"scale-price factor NaN", store.Record{Type: store.RecScalePrice, Item: 0, T: 1, Factor: math.NaN()}, "price factor"},
		{"scale-price factor +Inf", store.Record{Type: store.RecScalePrice, Item: 0, T: 1, Factor: math.Inf(1)}, "price factor"},
		{"scale-price factor 1e300", store.Record{Type: store.RecScalePrice, Item: 0, T: 1, Factor: 1e300}, "price factor"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := durCfg(dir)
			e, err := Open(in.Clone(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Sync(); err != nil {
				t.Fatal(err)
			}
			e.Close()
			st, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Append(tc.rec); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := Open(nil, cfg)
			if err == nil {
				price := r.Instance().Price(0, 1)
				r.Close()
				t.Fatalf("recovery accepted %+v (item 0 now priced %v)", tc.rec, price)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("recovery error %q does not name %q", err, tc.want)
			}
		})
	}
}

func TestCheckpointOnPureEngineFails(t *testing.T) {
	in := testInstance(t, 20, 4, 3, 2, 22)
	e := newTestEngine(t, in, Config{})
	if err := e.Checkpoint(); err == nil {
		t.Fatal("Checkpoint on a pure in-memory engine must fail")
	}
}

func TestSnapshotAfterKillFails(t *testing.T) {
	in := testInstance(t, 20, 4, 3, 2, 23)
	dir := t.TempDir()
	e, err := Open(in, durCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	e.Kill()
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err == nil {
		t.Fatal("Snapshot of a killed engine must fail")
	}
	if !errors.Is(e.Sync(), nil) {
		// Sync on a killed engine reports the sticky error state only;
		// the kill itself is not an error.
		t.Fatalf("Sync after kill: %v", e.Sync())
	}
}
