package main

import (
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/solver"
	"repro/internal/store"
)

// workload is one traffic mix against one daemon configuration. Every
// workload runs the same phase skeleton (set-up, steady, lag probe,
// advances, crash) so that every end-to-end metric exists on every
// workload; what differs is the daemon's flags and what connection B
// feeds during the steady phase.
type workload struct {
	name string
	// why is recorded in BENCHMARK.json and the README: the layers this
	// workload exercises and the ones it bypasses.
	why string

	durable     bool // -data-dir <tmp> -wal-sync always
	incremental bool // -incremental -warm-start
	shards      int  // ≥ 2: -shards N -flush-interval 1s

	// Connection B is an open-loop feed: rate events per second on a
	// fixed schedule, each an adoption with probability pAdopt.
	rate   float64
	pAdopt float64
}

var workloads = []workload{
	{
		name: "lookup",
		why:  "reads beside an exposure-only feed: no adoption, so no replan, WAL or cluster; replan/WAL/cluster changes must leave its steady metrics unchanged",
		rate: 300, pAdopt: 0,
	},
	{
		name: "feedback_durable",
		why:  "500 ev/s feed, fsync-per-record WAL, from-scratch replans: store append+fsync+replay, planner.Residual and the cold solver do most of the work; p99s beside replans are printed, not gated",
		rate: 500, pAdopt: 0.25, durable: true,
	},
	{
		name: "feedback_incremental",
		why:  "same feed and seed, in-memory, -incremental -warm-start: the core.Session delta path replaces residual rebuild + cold solve; store absent",
		rate: 500, pAdopt: 0.25, incremental: true,
	},
	{
		name: "cluster_mixed",
		why:  "2-shard cluster: router and coordinator barriers beside reads and a 300 ev/s feed, so a gain for one that costs the other shows; advance is synchronous; p99s beside barriers are printed, not gated",
		rate: 300, pAdopt: 0.25, shards: 2,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// instanceUsers is the size of the synthetic instance. Every bound,
// baseline and spread is taken at this size, so it is not a flag.
const instanceUsers = 4000

// The daemon's planning flags are left at their defaults; these mirror
// cmd/revmaxd so the in-process reference and the in-process targets
// plan exactly what the child process plans.
const (
	datasetName   = "synthetic"
	algorithm     = "GG"
	replanEvery   = 32
	flushInterval = time.Second
)

func solverOptions(seed uint64) solver.Options {
	return solver.Options{Perms: 5, Seed: seed + 1}
}

func (w workload) durability(dataDir string) *serve.Durability {
	if !w.durable {
		return nil
	}
	return &serve.Durability{
		Dir:              dataDir,
		Sync:             store.SyncAlways,
		SyncInterval:     200 * time.Millisecond,
		SnapshotInterval: 5 * time.Minute,
	}
}

func (w workload) engineConfig(seed uint64, dataDir string) serve.Config {
	return serve.Config{
		Algorithm:   algorithm,
		Solver:      solverOptions(seed),
		WarmStart:   w.incremental,
		Incremental: w.incremental,
		ReplanEvery: replanEvery,
		Durability:  w.durability(dataDir),
	}
}

func (w workload) clusterConfig(seed uint64, dataDir string) cluster.Config {
	return cluster.Config{
		Shards:      w.shards,
		Algorithm:   algorithm,
		Solver:      solverOptions(seed),
		WarmStart:   w.incremental,
		Incremental: w.incremental,
		ReplanEvery: replanEvery,
		Durability:  w.durability(dataDir),
	}
}

// daemonFlags are the revmaxd arguments that put the child process in
// this workload's configuration.
func (w workload) daemonFlags(users int, seed uint64, addr, dataDir string) []string {
	args := []string{
		"-dataset", datasetName, "-users", strconv.Itoa(users), "-seed", strconv.FormatUint(seed, 10),
		"-addr", addr, "-replan-every", strconv.Itoa(replanEvery),
	}
	if w.durable {
		args = append(args, "-data-dir", dataDir, "-wal-sync", "always")
	}
	if w.incremental {
		args = append(args, "-incremental", "-warm-start")
	}
	if w.shards >= 2 {
		args = append(args, "-shards", strconv.Itoa(w.shards), "-flush-interval", flushInterval.String())
	}
	return args
}

// metric is one named number the benchmark prints. The registry below
// is the single list: BENCHMARK.json, the README glossary and the smoke
// test are all checked against it.
type metric struct {
	name   string
	unit   string
	higher bool // true when a larger value is better
	help   string
}

// endToEnd are what a client of revmaxd sees; every workload reports
// every one of them (taken with tracing off).
var endToEnd = []metric{
	{"setup_s", "s", false, "spawn → first 200 from /healthz, polled every 2 ms (median of the run's boots): dataset build + initial solve + store init"},
	{"lookup_qps", "1/s", true, "connection A's closed-loop requests completed per second of the steady phase: upper quartile over its seconds"},
	{"recommend_p50_us", "us", false, "GET /v1/recommend round trip in the steady phase: median of each second, lower quartile over the seconds"},
	{"batch_p50_us", "us", false, "POST /v1/recommend/batch of 64 users round trip in the steady phase, same estimator"},
	{"adopt_mean_us", "us", false, "POST /v1/adopt round trip (sent → 202) on the open-loop feed in the steady phase: the mean of each second, lower quartile over the seconds"},
	{"replan_lag_ms", "ms", false, "lag probe: last ack of a 32-adoption burst that starts a replan → first /v1/stats showing the new plan (lower quartile of the rounds)"},
	{"advance_ms", "ms", false, "POST /v1/advance sent → replied and a replan over the new clock visible in /v1/stats (quickest of three per step, median over steps 2..T)"},
	{"recovery_s", "s", false, "restart after SIGKILL on the same flags and data dir → first 200 from /healthz (quickest of the restarts)"},
	{"rss_mb", "MB", false, "daemon VmRSS, median of one reading per second of the steady phase"},
	{"server_cpu_us_per_req", "us", false, "daemon utime+stime / HTTP requests completed, per second of the steady phase: lower quartile over the seconds"},
}

// perLayer are taken on the traced, in-process run, from the
// benchmark's own spans around each layer's public API.
var perLayer = []metric{
	{"dataset.build_ms", "ms", false, "dataset.Build"},
	{"solver.solve_cold_ms", "ms", false, "solver.Solve (g-greedy) on the full instance"},
	{"solver.selections", "count", false, "Result.Selections of that solve (repeats exactly)"},
	{"solver.recomputations", "count", false, "Result.Recomputations of that solve (repeats exactly)"},
	{"solver.heap_pops", "count", false, "Result.Stats.HeapPops of that solve (repeats exactly)"},
	{"planner.residual_ms", "ms", false, "planner.Residual(in, eng.Feedback()) after the steady phase"},
	{"solver.solve_residual_ms", "ms", false, "solver.Solve on that residual"},
	{"core.session_observe_us", "us", false, "shadow core.Session: Observe per steady-phase event, median"},
	{"core.session_solve_ms", "ms", false, "shadow core.Session: Solve after a 32-adoption delta, median"},
	{"core.session_dirty_cands", "count", false, "LastStats().DirtyCands of that solve"},
	{"core.session_restored_pairs", "count", false, "LastStats().RestoredPairs of that solve"},
	{"serve.boot_ms", "ms", false, "serve.NewEngine on the built instance"},
	{"serve.open_recover_ms", "ms", false, "serve.Open on a killed durable dir holding the steady-phase events"},
	{"serve.recommend_us", "us", false, "Engine.Recommend direct, median"},
	{"serve.recommend_batch64_us", "us", false, "Engine.RecommendBatch of 64 direct, median"},
	{"serve.feed_us", "us", false, "Engine.Feed direct, median"},
	{"serve.feedback_snapshot_ms", "ms", false, "Engine.Feedback()"},
	{"serve.flush_replan_ms", "ms", false, "32 fresh adoptions via Feed + Flush(), median"},
	{"serve.replan_self_ms", "ms", false, "flush_replan minus the solver/planner/session share: feedback copy, plan build, revenue, swap"},
	{"http.recommend_codec_us", "us", false, "Handler.ServeHTTP with a recorder minus the direct call, /v1/recommend"},
	{"http.batch_codec_us", "us", false, "same for /v1/recommend/batch"},
	{"http.adopt_codec_us", "us", false, "same for /v1/adopt"},
	{"http.net_us", "us", false, "client round trip minus the wrapping-handler span, /v1/recommend, median"},
	{"cluster.recommend_us", "us", false, "Cluster.Recommend direct, median"},
	{"cluster.recommend_batch64_us", "us", false, "Cluster.RecommendBatch of 64 direct, median"},
	{"cluster.feed_us", "us", false, "Cluster.Feed direct, median"},
	{"cluster.flush_barrier_ms", "ms", false, "32 fresh adoptions via Cluster.Feed + Flush(), median"},
	{"cluster.setnow_ms", "ms", false, "Cluster.SetNow (synchronous barrier), median over 2..T"},
	{"cluster.barriers", "count", false, "CoordinatorStats().ReconcileRounds at the end"},
	{"cluster.quota_denials", "count", false, "CoordinatorStats().QuotaDenials at the end"},
	{"store.append_us", "us", false, "shadow store, policy none: Append per record, median"},
	{"store.append_sync_us", "us", false, "shadow store, policy always: Append (with its fsync) per record, median"},
	{"store.sync_us", "us", false, "shadow store, policy batch: Sync() after each 32 appends, median"},
	{"store.bytes_per_record", "B", false, "shadow store: WAL bytes / records appended"},
	{"store.replay_ms", "ms", false, "Store.Replay of the shadow log"},
	{"store.replay_records", "count", false, "records that replay delivered"},
	{"store.write_snapshot_ms", "ms", false, "Store.WriteSnapshot of the engine's snapshot image"},
	{"store.wal_bytes_per_event", "B", false, "hosted stack: bytes under wal-*.log / events acked (0 when in-memory)"},
	{"daemon.fsyncs", "count", false, "hosted stack's own revmaxd_wal_fsync_seconds count"},
	{"daemon.replans", "count", false, "hosted stack's replans during the steady phase"},
	{"daemon.replan_rate_hz", "1/s", true, "those replans / steady-phase seconds"},
	{"daemon.solve_recomputations", "count", false, "hosted stack's own revmaxd_solve_recomputations_total"},
	{"client.recommend_p50_us", "us", false, "steady phase, GET /v1/recommend round trip, median"},
	{"client.recommend_p99_us", "us", false, "… 99th percentile"},
	{"client.batch_p50_us", "us", false, "steady phase, batch of 64 round trip, median"},
	{"client.batch_p99_us", "us", false, "… 99th percentile"},
	{"client.adopt_p50_us", "us", false, "steady phase, POST /v1/adopt from its due time on the open-loop schedule to the 202, median"},
	{"client.adopt_p99_us", "us", false, "… 99th percentile"},
	{"loadgen.late_p99_us", "us", false, "how late the open-loop feed sent, 99th percentile"},
	{"loadgen.trace_overhead_pct", "%", false, "recommend p50 with spans on vs off, same run"},
	{"recommend.unattributed_pct", "%", false, "share of the recommend round trip no layer metric covers"},
	{"batch.unattributed_pct", "%", false, "share of the batch round trip no layer metric covers"},
	{"adopt.unattributed_pct", "%", false, "share of the adopt round trip no layer metric covers"},
}
