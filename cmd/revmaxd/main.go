// Command revmaxd is the online recommendation-serving daemon: it plans
// a REVMAX strategy for a dataset and serves per-user recommendation
// lookups over HTTP/JSON while folding adoption feedback back into
// asynchronous receding-horizon replans.
//
// Usage:
//
//	revmaxd -dataset amazon -scale 0.01 -addr :8372
//	revmaxd -load-instance catalog.json -algo sl-greedy
//	revmaxd -algo rl-greedy -perms 20 -snapshot /var/lib/revmaxd.snap
//	revmaxd -data-dir /var/lib/revmaxd -wal-sync batch -snapshot-interval 5m
//
// The planning algorithm is any name in the solver registry (legacy
// aliases like GG/SLG/RLG included); the daemon's whole planning
// behavior is declared by flags, no code changes needed.
//
// Endpoints: /v1/recommend, /v1/recommend/batch, /v1/adopt, /v1/advance,
// /v1/stats, /healthz (liveness + SLO verdicts, JSON), /metrics
// (Prometheus text exposition), /debug/traces (recent trace timelines,
// JSON). Request endpoints honor an X-Trace-Id header (16 hex digits)
// for cross-service correlation.
//
// Observability. Structured logs go to stderr (-log-format text|json):
// replan/barrier summaries, slow sampled requests (-slow-ms threshold),
// and SLO breach/recovery transitions from the built-in watchdog, whose
// verdicts are also exported as revmaxd_slo_* metrics and summarized in
// /healthz. Log records carry trace_id/span_id when the work was
// traced, and shard=<k> in sharded mode.
//
//	curl 'localhost:8372/v1/recommend?user=7&t=1'
//	curl -d '{"user":7,"item":3,"t":1,"adopted":true}' localhost:8372/v1/adopt
//
// With -debug-addr a second listener serves the Go pprof suite
// (/debug/pprof/) plus mirrors of /metrics and /debug/traces — keep it
// on localhost or a management network; it is separate from -addr
// precisely so the public API surface never exposes profiling.
//
// Durability. With -data-dir, every state mutation is appended to a
// CRC-checksummed write-ahead log before it is applied, background
// snapshots compact the log (-snapshot-interval), and on boot the
// daemon recovers from the newest valid snapshot plus the WAL tail —
// tolerating a torn final record, so even kill -9 loses at most the
// events after the last fsync (-wal-sync policy; see the README's
// fsync table). Graceful shutdown (SIGINT/SIGTERM) drains the
// adoption-feedback queue, fsyncs the log, and seals a final snapshot.
//
// The legacy -snapshot flag is the in-memory warm-restart path (write
// one image on shutdown, restore it on boot); it is mutually exclusive
// with -data-dir, which strictly supersedes it. Both write the same
// binary engine snapshot (version 2, CRC-checked); a version 1 JSON
// image from an older build is refused at boot with an error naming
// its version.
//
// Scale-out. With -shards N (N ≥ 2) the daemon stripes its users across
// N engine shards behind a cross-shard stock/quota coordinator
// (internal/cluster): same endpoints, same answers — /v1/stats
// aggregates the fleet and /metrics carries a shard label per series.
// Under -data-dir each shard logs to shard-<k>/ and the coordinator
// ledger to coord/, and boot recovers all of them. The shard count is
// part of the durable layout, so reboots must keep the same -shards.
//
// Cluster barriers run themselves: every -replan-every adoptions and
// every /v1/advance trigger a coordinated reconcile+replan, and
// -flush-interval adds a wall-clock floor so a trickle of adoptions
// below the cadence still reaches the coordinator's stock ledger and
// the planner within that period.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/serve"
	"repro/internal/solver"
	"repro/internal/store"
)

// serving is what a single serve.Engine and a sharded cluster.Cluster
// share: the serve.Backend the one HTTP mux serves, plus everything run
// and drainAndStop need after boot.
type serving interface {
	serve.Backend
	Stats() serve.Stats
	Sync() error
	Close()
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // -h/--help: usage already printed, exit 0
		}
		fmt.Fprintf(os.Stderr, "revmaxd: %v\n", err)
		os.Exit(1)
	}
}

// run parses args, boots the engine, and serves until a signal or a
// fatal server error. It is the testable entry point: flag errors and
// invalid configurations return before anything binds a port.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("revmaxd", flag.ContinueOnError)
	// Buffer the flag package's output: -h/--help usage is copied to
	// stdout (exit 0), while parse errors are reported exactly once —
	// by main, on stderr — instead of also spamming usage onto stdout.
	var usage bytes.Buffer
	fs.SetOutput(&usage)
	addr := fs.String("addr", ":8372", "listen address")
	dsName := fs.String("dataset", "amazon", "dataset: "+strings.Join(dataset.Names(), " | "))
	scale := fs.Float64("scale", 0.01, "dataset scale (1.0 = paper scale)")
	seed := fs.Uint64("seed", 42, "random seed")
	users := fs.Int("users", 2000, "user count (synthetic dataset only)")
	algoName := fs.String("algo", "GG", "planning algorithm: any solver-registry name or alias")
	perms := fs.Int("perms", 5, "RL-Greedy permutations")
	workers := fs.Int("workers", 0, "rl-greedy-parallel workers (0 = GOMAXPROCS)")
	cuts := fs.String("cuts", "", "staged variants: comma-separated sub-horizon cut-offs, e.g. 2,4")
	loadInstance := fs.String("load-instance", "", "load the instance from a JSON file instead of generating one")
	snapshot := fs.String("snapshot", "", "legacy snapshot file: restore from it at boot if present, write it on shutdown; a binary v2 image, v1 JSON images are refused (mutually exclusive with -data-dir)")
	replanEvery := fs.Int("replan-every", 32, "adoptions per background replan")
	warmStart := fs.Bool("warm-start", false, "seed each replan with the previous plan's still-feasible triples (lower replan latency; plans may differ from cold solves)")
	incremental := fs.Bool("incremental", false, "replan through a persistent solver session with delta-driven invalidation: byte-identical plans, replan latency flat in the event rate (requires a G-Greedy -algo, composes with -warm-start)")
	shards := fs.Int("shards", 1, "engine shard count: 1 serves from a single engine, ≥ 2 stripes users across a sharded cluster with a cross-shard stock/quota coordinator")
	dataDir := fs.String("data-dir", "", "durable state directory (write-ahead log + snapshots); recovery happens from here on boot")
	debugAddr := fs.String("debug-addr", "", "listen address for the debug server (pprof, /metrics, /debug/traces); empty disables")
	walSync := fs.String("wal-sync", "batch", "WAL fsync policy: always | batch | none")
	snapInterval := fs.Duration("snapshot-interval", 5*time.Minute, "background snapshot + log compaction period with -data-dir (0 disables; a final snapshot is still written on shutdown)")
	flushInterval := fs.Duration("flush-interval", time.Second, "sharded mode: maximum wall-clock delay before buffered adoptions reach a coordinated reconcile/replan barrier (0 disables the ticker; adoption-count and advance barriers still fire)")
	logFormat := fs.String("log-format", "text", "structured log format on stderr: text | json")
	slowMS := fs.Int("slow-ms", 0, "log sampled requests slower than this many milliseconds (0 disables slow-request logging)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fmt.Fprint(stdout, usage.String())
		}
		return err
	}

	// Resolve the algorithm up front, through the check every serving
	// config runs (planner.ServingOptions): a typo in -algo, an -algo that
	// returns no candidate-indexed plan to serve or one that may exceed
	// capacity, or one that cannot replan incrementally, must fail in
	// milliseconds with the registry's name list, not after dataset
	// generation. The second check adds only the session requirement, so
	// its error names -incremental.
	if _, err := planner.ServingOptions(planner.ReplanConfig{Algorithm: *algoName}); err != nil {
		return err
	}
	if _, err := planner.ServingOptions(planner.ReplanConfig{Algorithm: *algoName, Incremental: *incremental}); err != nil {
		return fmt.Errorf("-incremental: %w", err)
	}
	if *dataDir != "" && *snapshot != "" {
		return errors.New("-snapshot and -data-dir are mutually exclusive (the data dir already snapshots on shutdown)")
	}
	if *shards < 1 {
		return fmt.Errorf("-shards %d out of range (want ≥ 1)", *shards)
	}
	if *shards >= 2 && *snapshot != "" {
		return errors.New("-snapshot is the single-engine warm-restart path; sharded clusters persist through -data-dir")
	}
	if *flushInterval < 0 {
		return fmt.Errorf("-flush-interval %v out of range (want ≥ 0; 0 disables the periodic barrier)", *flushInterval)
	}
	if *slowMS < 0 {
		return fmt.Errorf("-slow-ms %d out of range (want ≥ 0; 0 disables slow-request logging)", *slowMS)
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat)
	if err != nil {
		return err
	}
	policy, err := store.ParseSyncPolicy(*walSync)
	if err != nil {
		return err
	}
	cutList, err := parseCuts(*cuts)
	if err != nil {
		return err
	}
	opts := solver.Options{Perms: *perms, Seed: *seed + 1, Workers: *workers, Cuts: cutList}
	var durability *serve.Durability
	if *dataDir != "" {
		durability = &serve.Durability{
			Dir:  *dataDir,
			Sync: policy,
			// HTTP clients have no flush verb, so nothing would ever drive
			// the batch policy's group commit between checkpoints; the
			// ticker bounds the window in which acknowledged events are
			// not yet on disk (fsync under batch, flush-to-kernel under
			// none so even kill -9 cannot shed user-space buffers).
			SyncInterval:     200 * time.Millisecond,
			SnapshotInterval: *snapInterval,
		}
	}

	var (
		svc        serving
		stopTicker func()
	)
	if *shards >= 2 {
		ccfg := cluster.Config{
			Shards:        *shards,
			Algorithm:     *algoName,
			Solver:        opts,
			WarmStart:     *warmStart,
			Incremental:   *incremental,
			ReplanEvery:   *replanEvery,
			Durability:    durability,
			Logger:        logger,
			SlowThreshold: time.Duration(*slowMS) * time.Millisecond,
		}
		cl, err := bootCluster(ccfg, *loadInstance, *dsName, *scale, *seed, *users, stdout)
		if err != nil {
			return err
		}
		if *flushInterval > 0 {
			stopTicker = startFlushTicker(cl, *flushInterval)
		}
		svc = cl
	} else {
		cfg := serve.Config{
			Algorithm:     *algoName,
			Solver:        opts,
			WarmStart:     *warmStart,
			Incremental:   *incremental,
			ReplanEvery:   *replanEvery,
			Durability:    durability,
			Logger:        logger,
			SlowThreshold: time.Duration(*slowMS) * time.Millisecond,
		}
		engine, err := bootEngine(cfg, *snapshot, *loadInstance, *dsName, *scale, *seed, *users, stdout)
		if err != nil {
			return err
		}
		svc = engine
	}
	defer svc.Close()
	handler := serve.Handler(svc)

	st := svc.Stats()
	fmt.Fprintf(stdout, "revmaxd: %d users, %d items, T=%d, k=%d; plan rev %d with %d triples (expected revenue %.2f), %d shards, algo %s\n",
		st.Users, st.Items, st.Horizon, st.K, st.PlanRevision, st.PlannedTriples, st.PlanRevenue, st.Shards, *algoName)

	server := &http.Server{
		Addr:         *addr,
		Handler:      handler,
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 30 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- server.ListenAndServe() }()
	fmt.Fprintf(stdout, "revmaxd: listening on %s\n", *addr)

	var debugServer *http.Server
	if *debugAddr != "" {
		debugServer = &http.Server{Addr: *debugAddr, Handler: debugHandler(handler)}
		// Debug-listener failures are fatal like main-listener ones: an
		// operator who asked for pprof should not silently run without it.
		go func() { errc <- debugServer.ListenAndServe() }()
		fmt.Fprintf(stdout, "revmaxd: debug server (pprof, /metrics, /debug/traces) on %s\n", *debugAddr)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	var serveErr error
	select {
	case sig := <-sigc:
		fmt.Fprintf(stdout, "revmaxd: %v — shutting down\n", sig)
	case err := <-errc:
		// Listener died, but the engine is healthy: still run the full
		// shutdown sequence so accumulated feedback reaches the snapshot.
		fmt.Fprintf(os.Stderr, "revmaxd: server error: %v — shutting down\n", err)
		serveErr = err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := server.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "revmaxd: shutdown: %v\n", err)
	}
	if debugServer != nil {
		if err := debugServer.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "revmaxd: debug shutdown: %v\n", err)
		}
	}
	if stopTicker != nil {
		stopTicker()
	}
	if err := drainAndStop(svc, *snapshot, stdout); err != nil {
		return err
	}
	return serveErr
}

// startFlushTicker drives the cluster's coordinated barrier on a
// wall-clock cadence, bounding how stale the coordinator's stock
// ledger and the served plan can get when adoption traffic trickles in
// below the -replan-every count trigger. Flush is a no-op when nothing
// is dirty, so an idle cluster pays only a mutex round-trip per tick.
// The returned stop function waits for the driver to exit and must be
// called before drainAndStop so no barrier races the final seal.
func startFlushTicker(cl *cluster.Cluster, every time.Duration) func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				cl.Flush()
			}
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}

// drainAndStop is the graceful-shutdown tail, run after the HTTP
// listener stops accepting: it drains the adoption-feedback queue
// (every accepted event applied and replanned over — cluster-wide when
// sharded), forces the WAL to stable storage, writes the legacy
// snapshot file if requested, and closes the serving side — which, when
// durable, seals final snapshots and compacts the logs so the next boot
// recovers warm. It returns the first durability error, so a daemon
// that silently lost its log exits non-zero instead of pretending the
// state is safe.
func drainAndStop(svc serving, snapshotPath string, stdout io.Writer) error {
	syncErr := svc.Sync()
	if snapshotPath != "" {
		// Flag validation only lets -snapshot through in single-engine
		// mode, so the assertion is structural, not reachable by users.
		engine, ok := svc.(*serve.Engine)
		if !ok {
			return errors.New("legacy snapshots are single-engine only")
		}
		if err := writeSnapshot(engine, snapshotPath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "revmaxd: snapshot written to %s\n", snapshotPath)
	}
	svc.Close()
	if syncErr != nil {
		return fmt.Errorf("draining state on shutdown: %w", syncErr)
	}
	if err := svc.Err(); err != nil {
		return fmt.Errorf("sealing durable state on shutdown: %w", err)
	}
	if st := svc.Stats(); st.Durable {
		fmt.Fprintf(stdout, "revmaxd: durable state sealed at wal lsn %d\n", st.WALNextLSN)
	}
	return nil
}

// bootEngine picks the boot path: durable recovery when the data dir
// holds state, a legacy snapshot-file restore when one exists, and
// otherwise a cold boot — building the instance (from file or
// generator) and planning fresh.
func bootEngine(cfg serve.Config, snapshot, loadInstance, dsName string, scale float64, seed uint64, users int, stdout io.Writer) (*serve.Engine, error) {
	if d := cfg.Durability; d != nil && d.Dir != "" {
		if store.DirHasState(d.Dir) {
			// Recovery: the instance lives in the durable snapshot — the
			// dataset flags are ignored rather than re-generating a world
			// that would not match the logged events.
			engine, err := serve.Open(nil, cfg)
			if err != nil {
				return nil, fmt.Errorf("recover %s: %w", d.Dir, err)
			}
			fmt.Fprintf(stdout, "revmaxd: recovered durable state from %s (wal lsn %d)\n",
				d.Dir, engine.Stats().WALNextLSN)
			return engine, nil
		}
		in, err := buildInstance(loadInstance, dsName, scale, seed, users)
		if err != nil {
			return nil, err
		}
		engine, err := serve.Open(in, cfg)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "revmaxd: durable state initialized in %s\n", d.Dir)
		return engine, nil
	}
	if snapshot != "" {
		if f, err := os.Open(snapshot); err == nil {
			defer f.Close()
			engine, rerr := serve.Restore(f, cfg)
			if rerr != nil {
				return nil, fmt.Errorf("restore %s: %w", snapshot, rerr)
			}
			fmt.Fprintf(stdout, "revmaxd: restored warm from %s\n", snapshot)
			return engine, nil
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	in, err := buildInstance(loadInstance, dsName, scale, seed, users)
	if err != nil {
		return nil, err
	}
	return serve.NewEngine(in, cfg)
}

// bootCluster is bootEngine's sharded twin: recover the whole fleet
// (shards + coordinator ledger) when the data dir holds state,
// otherwise build the instance and boot fresh. The legacy snapshot file
// has no cluster form, so there is no restore branch.
func bootCluster(cfg cluster.Config, loadInstance, dsName string, scale float64, seed uint64, users int, stdout io.Writer) (*cluster.Cluster, error) {
	if d := cfg.Durability; d != nil && d.Dir != "" && store.DirHasState(filepath.Join(d.Dir, "coord")) {
		cl, err := cluster.Open(nil, cfg)
		if err != nil {
			return nil, fmt.Errorf("recover %s: %w", d.Dir, err)
		}
		fmt.Fprintf(stdout, "revmaxd: recovered %d-shard durable cluster from %s\n", cl.Shards(), d.Dir)
		return cl, nil
	}
	in, err := buildInstance(loadInstance, dsName, scale, seed, users)
	if err != nil {
		return nil, err
	}
	cl, err := cluster.Open(in, cfg)
	if err != nil {
		return nil, err
	}
	if d := cfg.Durability; d != nil && d.Dir != "" {
		fmt.Fprintf(stdout, "revmaxd: %d-shard durable cluster initialized in %s\n", cl.Shards(), d.Dir)
	}
	return cl, nil
}

func buildInstance(loadInstance, dsName string, scale float64, seed uint64, users int) (*model.Instance, error) {
	if loadInstance != "" {
		f, err := os.Open(loadInstance)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return codec.DecodeInstance(f)
	}
	ds, err := dataset.Build(dsName, dataset.Config{Seed: seed, Scale: scale, Users: users})
	if err != nil {
		return nil, err
	}
	return ds.Instance, nil
}

func writeSnapshot(engine *serve.Engine, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := engine.Snapshot(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// parseCuts parses "2,4" into []int{2, 4}, mirroring the revmax CLI.
func parseCuts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || c < 1 {
			return nil, fmt.Errorf("invalid -cuts entry %q (want positive integers, e.g. 2,4)", part)
		}
		out = append(out, c)
	}
	return out, nil
}
