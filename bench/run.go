package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/serve"
)

// settings are the knobs of one run. The defaults are what
// BENCHMARK.json's command runs; the smoke test shrinks them.
type settings struct {
	users     int
	seed      uint64
	steady    time.Duration
	boots     int           // set-up repetitions; setup_s is their median
	lagBudget time.Duration // the lag probe repeats for this long
	minRounds int           // … at least this often
	restarts  int           // SIGKILL + restart repetitions; recovery_s is their median
}

// statWindow is the window of the per-window quantiles.
const statWindow = time.Second

// advancesPerStep repeats each clock advance; the quickest counts.
const advancesPerStep = 3

// reference is the same instance rebuilt in this process and planned
// with the daemon's defaults: the source of truth for the checks.
type reference struct {
	in    *model.Instance
	eng   *serve.Engine
	stats serve.Stats
}

func buildReference(users int, seed uint64) (*reference, error) {
	in, err := buildInstance(users, seed)
	if err != nil {
		return nil, err
	}
	eng, err := serve.NewEngine(in, workload{}.engineConfig(seed, ""))
	if err != nil {
		return nil, err
	}
	return &reference{in: in, eng: eng, stats: eng.Stats()}, nil
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's run, printed as the last line of output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	// The rest is for the human-readable report and saved runs; the
	// contract line carries only the four keys above.
	detail detail
}

type detail struct {
	workload string
	seed     uint64
	instance string
	ops      map[string]opCount
	counts   map[string]int // sample counts behind the quantiles
	extra    map[string]value
	checks   []string // failed checks
	// traceFile is where the traced run wrote its spans.
	traceFile string
}

// runner drives one workload against one target.
type runner struct {
	w   workload
	set settings
	tgt target
	ref *reference
	// sink, when set, makes this the traced run.
	sink spanSink

	now     atomic.Int32
	a, b    *conn
	rd      *reader
	fd      *feeder
	probe   *rand.Rand
	res     result
	metrics map[string]float64
}

func (r *runner) check(ok bool, format string, args ...any) {
	if !ok {
		r.res.detail.checks = append(r.res.detail.checks, fmt.Sprintf(format, args...))
	}
}

// bootCheck compares a freshly booted daemon's plan with the
// reference, bit for bit.
func (r *runner) bootCheck(phase string) error {
	st, err := r.b.stats()
	if err != nil {
		return err
	}
	want := r.ref.stats
	r.check(st.PlanRevenue == want.PlanRevenue && st.PlannedTriples == want.PlannedTriples,
		"%s: plan_revenue %v with %d triples, reference %v with %d",
		phase, st.PlanRevenue, st.PlannedTriples, want.PlanRevenue, want.PlannedTriples)
	return nil
}

// boot runs the set-up phase: set.boots fresh boots, the last one kept.
func (r *runner) boot() error {
	var setups []float64
	for i := 0; i < r.set.boots; i++ {
		if i > 0 {
			if err := errors.Join(r.tgt.kill(), r.tgt.wipe()); err != nil {
				return err
			}
		}
		d, err := r.tgt.start()
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	r.repeated("setup_s", median(setups), len(setups))
	r.connect()
	return r.bootCheck("boot")
}

func (r *runner) connect() {
	if r.a != nil {
		r.a.close()
		r.b.close()
	}
	r.a, r.b = newConn(r.tgt.addr()), newConn(r.tgt.addr())
	if r.rd != nil {
		r.rd.c, r.fd.c = r.a, r.b
	}
}

// steady runs connection A's closed loop beside connection B's
// open-loop feed for length and derives the steady-phase metrics.
func (r *runner) steady(length time.Duration) error {
	r.rd = &reader{c: r.a, rng: newRNG(r.set.seed, streamReader), users: r.ref.in.NumUsers,
		now: &r.now, ref: r.ref, exact: r.w.pAdopt == 0, sink: r.sink}
	r.fd = &feeder{c: r.b, w: r.w, rng: newRNG(r.set.seed, streamFeed), ref: r.ref,
		now: &r.now, sink: r.sink, adopted: make(map[userClass]bool)}

	before, err := r.b.stats()
	if err != nil {
		return err
	}
	windows := int(length / statWindow)
	begin := time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); r.rd.run(begin.Add(length)) }()
	go func() { defer wg.Done(); r.fd.steady(begin, length) }()
	// Meanwhile read the daemon's CPU time and resident set at every
	// window boundary.
	cpu, rss := make([]time.Duration, windows+1), make([]float64, windows+1)
	var peakMB float64
	var usageErr error
	for w := range cpu {
		time.Sleep(time.Until(begin.Add(time.Duration(w) * statWindow)))
		if cpu[w], rss[w], peakMB, err = r.tgt.usage(); err != nil {
			usageErr = err
		}
	}
	wg.Wait()
	if usageErr != nil {
		return usageErr
	}
	elapsed := time.Since(begin).Seconds()
	after, err := r.b.stats()
	if err != nil {
		return err
	}

	// Other tenants of the box slow whole seconds of a run, and only ever
	// slow them. So each gated steady-phase number is taken per one-second
	// window and the better quartile of the windows is reported: while
	// the box is busy it differs about half as much between runs of the
	// same code as the figure for the whole phase. A window holds several replans or barriers on
	// the workloads that have them, so what those do to the reads beside
	// them is in every window, and in the quartile. The whole-phase
	// figures and the tails are printed beside them, without a bound:
	// the tails differ by 11–45 % between runs of the same code.
	rd, fd := r.rd, r.fd
	m, n := r.metrics, r.res.detail.counts
	lookups, requests := make([]float64, windows), make([]float64, windows)
	for i, lat := range []*timed{&rd.recLat, &rd.batchLat, &fd.adoptRT} {
		for _, at := range lat.at {
			if w := int(at.Sub(begin) / statWindow); w < windows {
				requests[w]++
				if i < 2 {
					lookups[w] += 1 / statWindow.Seconds()
				}
			}
		}
	}
	m["lookup_qps"] = quartile(lookups, 3)
	r.extra("steady.lookup_qps_mean", float64(rd.rec.OK+rd.batch.OK)/elapsed, "1/s")
	var cpuPerReq []float64
	for w, done := range requests {
		if done > 0 {
			cpuPerReq = append(cpuPerReq, micros(cpu[w+1]-cpu[w])/done)
		}
	}
	m["server_cpu_us_per_req"] = quartile(cpuPerReq, 1)
	r.extra("steady.server_cpu_us_per_req_mean", micros(cpu[windows]-cpu[0])/float64(rd.rec.Sent+rd.batch.Sent+fd.adopt.Sent), "us")
	n["lookup_qps"], n["server_cpu_us_per_req"] = windows, windows
	for op, lat := range map[string]*timed{"recommend": &rd.recLat, "batch": &rd.batchLat} {
		m[op+"_p50_us"] = quartile(lat.windowed(samples.p50, begin, statWindow, windows), 1)
		n[op+"_p50_us"] = lat.len()
		all := lat.lat.sorted()
		r.extra("steady."+op+"_p50_all_us", all.quantile(0.50), "us")
		r.extra("steady."+op+"_p99_us", all.quantile(0.99), "us")
	}
	// The feed's round trips have two modes, outside and inside a replan
	// or barrier, and the median sits on the edge between them (on the
	// cluster one run's seconds have medians from 120 to 520 us). The
	// mean holds both modes: it is the time the feed's connection is
	// busy per event.
	m["adopt_mean_us"] = quartile(fd.adoptRT.windowed(samples.mean, begin, statWindow, windows), 1)
	n["adopt_mean_us"] = fd.adoptRT.len()
	rt, due := fd.adoptRT.lat.sorted(), fd.adoptDue.sorted()
	r.extra("steady.adopt_mean_all_us", rt.mean(), "us")
	r.extra("steady.adopt_p50_us", rt.quantile(0.50), "us")
	r.extra("steady.adopt_p99_us", rt.quantile(0.99), "us")
	r.extra("steady.adopt_due_p50_us", due.quantile(0.50), "us")
	r.extra("steady.adopt_due_p99_us", due.quantile(0.99), "us")
	m["rss_mb"], n["rss_mb"] = median(rss), len(rss)
	r.extra("steady.rss_peak_mb", peakMB, "MB")
	replans := float64(after.Replans - before.Replans)
	r.extra("steady.replans", replans, "count")
	r.extra("steady.replan_rate_hz", replans/elapsed, "1/s")
	r.extra("steady.late_p99_us", fd.late.sorted().quantile(0.99), "us")
	if rd.checkErr != nil {
		r.check(false, "steady: %v", rd.checkErr)
	}
	return nil
}

// repeated reports a metric measured n times in the run.
func (r *runner) repeated(name string, v float64, n int) {
	r.metrics[name] = v
	r.res.detail.counts[name] = n
}

func (r *runner) extra(name string, v float64, unit string) {
	r.res.detail.extra[name] = value{v, unit}
}

// drain waits until the daemon has applied every acknowledged event,
// then checks its counters against what was sent.
func (r *runner) drain(phase string) (daemonStats, error) {
	want := int64(len(r.fd.events))
	deadline := time.Now().Add(bootTimeout)
	for {
		st, err := r.b.stats()
		if err != nil {
			return st, err
		}
		if st.Exposures >= want || time.Now().After(deadline) {
			r.check(st.Exposures == want, "%s: exposures %d, events acked %d", phase, st.Exposures, want)
			r.check(st.Adoptions == int64(len(r.fd.adopted)),
				"%s: adoptions %d, distinct (user, class) adopted %d", phase, st.Adoptions, len(r.fd.adopted))
			return st, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// quiet is longer than a replan takes on a quiet daemon: twice a boot,
// which holds a dataset build and a from-scratch solve, plus, on a
// cluster, a flush tick.
func (r *runner) quiet() time.Duration {
	quiet := time.Duration(2 * r.metrics["setup_s"] * float64(time.Second))
	if r.w.shards >= 2 {
		quiet += flushInterval
	}
	return quiet
}

// quiesce waits until no replan is running: /v1/stats has no such
// flag, so it waits for replans to hold still for quiet. A feed without
// adoptions cannot have started one.
func (r *runner) quiesce() error {
	if len(r.fd.adopted) == 0 {
		return nil
	}
	quiet := r.quiet()
	st, err := r.b.stats()
	if err != nil {
		return err
	}
	since := time.Now()
	for time.Since(since) < quiet {
		time.Sleep(10 * time.Millisecond)
		cur, err := r.b.stats()
		if err != nil {
			return err
		}
		if cur.Replans != st.Replans {
			since = time.Now()
		}
		st = cur
	}
	return nil
}

// servedZero asks for up to 100 adopters' recommendations and checks
// that nothing from an adopted class is still offered with prob > 0.
func (r *runner) servedZero() error {
	keys := make([]userClass, 0, len(r.fd.adopted))
	for k := range r.fd.adopted {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].user != keys[j].user {
			return keys[i].user < keys[j].user
		}
		return keys[i].class < keys[j].class
	})
	r.probe.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	if len(keys) > 100 {
		keys = keys[:100]
	}
	t := r.now.Load()
	for _, k := range keys {
		var got recommendReply
		path := "/v1/recommend?user=" + strconv.Itoa(int(k.user)) + "&t=" + strconv.Itoa(int(t))
		if err := r.a.getJSON(path, &got); err != nil {
			return err
		}
		for _, it := range got.Items {
			r.check(r.ref.in.Class(it.Item) != k.class || it.Prob == 0,
				"user %d adopted class %d but is served item %d with prob %v", k.user, k.class, it.Item, it.Prob)
		}
	}
	return nil
}

// crash is the SIGKILL phase: record the counters of a quiet daemon,
// kill it, restart it on the same flags and data dir, and compare.
// Only fsynced bytes are relied on: the durable workload logs with
// policy always and the queue is drained before the kill.
func (r *runner) crash(before daemonStats) error {
	var recoveries []float64
	for i := 0; i < r.set.restarts; i++ {
		if err := r.tgt.kill(); err != nil {
			return err
		}
		d, err := r.tgt.start()
		if err != nil {
			return fmt.Errorf("restart after SIGKILL: %w", err)
		}
		recoveries = append(recoveries, d.Seconds())
	}
	r.repeated("recovery_s", quartile(recoveries, 1), len(recoveries))
	r.connect()
	if !r.w.durable {
		// Nothing was durable: the daemon is back on the boot plan.
		return r.bootCheck("restart")
	}
	after, err := r.b.stats()
	if err != nil {
		return err
	}
	// Each recovery replans once over the replayed tail and logs that
	// plan swap, so the log may be that much longer — never shorter.
	grew := after.WALNextLSN - before.WALNextLSN
	r.check(after.Adoptions == before.Adoptions && after.Exposures == before.Exposures && grew <= uint64(r.set.restarts),
		"recovery: adoptions/exposures/wal_next_lsn %d/%d/%d, before the kill %d/%d/%d",
		after.Adoptions, after.Exposures, after.WALNextLSN, before.Adoptions, before.Exposures, before.WALNextLSN)
	return nil
}

// run is the whole untraced workload: set-up, steady phase, drain and
// checks, lag probe, advances, crash and recovery.
func (r *runner) run() error {
	r.init()
	if err := r.boot(); err != nil {
		return err
	}
	if err := r.steady(r.set.steady); err != nil {
		return err
	}
	if _, err := r.drain("after steady phase"); err != nil {
		return err
	}
	if err := r.servedZero(); err != nil {
		return err
	}
	if err := r.probes(); err != nil {
		return err
	}
	st, err := r.drain("before the kill")
	if err != nil {
		return err
	}
	if r.w.durable {
		bytes, err := walBytes(r.tgt.dataDir())
		if err != nil {
			return err
		}
		r.extra("wal_bytes_per_event", float64(bytes)/float64(len(r.fd.events)), "B")
	}
	if err := r.crash(st); err != nil {
		return err
	}
	if err := r.tgt.stop(); err != nil {
		r.check(false, "graceful shutdown: %v", err)
	}
	r.finish(endToEnd)
	return nil
}

// probes runs the lag probe and the advances, on a quiet daemon.
func (r *runner) probes() error {
	if err := r.quiesce(); err != nil {
		return err
	}
	lags, discarded, err := r.fd.lagProbe(r.probe, r.set.lagBudget, r.quiet()+time.Second, r.set.minRounds, 4*r.set.minRounds)
	if err != nil {
		return err
	}
	r.repeated("replan_lag_ms", quartile(lags, 1), len(lags))
	r.extra("lag.median_ms", median(lags), "ms")
	r.extra("lag.rounds_discarded", float64(discarded), "count")
	// Each step is advanced to advancesPerStep times — the daemon accepts
	// an advance to the current step and replans over it again — and
	// counts with its quickest; the steps differ in how much horizon is
	// left to plan, so the metric is the median over them.
	var perStep []float64
	total := 0
	for step := 2; step <= r.ref.in.T; step++ {
		var took []float64
		for i := 0; i < advancesPerStep; i++ {
			d, ok, err := r.fd.advanceTo(step)
			if err != nil {
				return err
			}
			if ok {
				took = append(took, millis(d))
			}
		}
		if len(took) > 0 {
			perStep = append(perStep, quartile(took, 0))
			total += len(took)
		}
	}
	r.repeated("advance_ms", median(perStep), total)
	// The last advance's replan has been seen; nothing is in flight.
	return nil
}

func (r *runner) init() {
	r.now.Store(1)
	r.probe = newRNG(r.set.seed, streamProbe)
	r.metrics = make(map[string]float64)
	r.res.detail = detail{
		workload: r.w.name, seed: r.set.seed,
		ops: make(map[string]opCount), counts: make(map[string]int), extra: make(map[string]value),
	}
	st := r.ref.stats
	r.res.detail.instance = fmt.Sprintf("%d users, %d items, T=%d, k=%d, %d planned triples",
		st.Users, st.Items, st.Horizon, st.K, st.PlannedTriples)
	// The reference instance and engine stay live for the checks; keep
	// this process's collector out of the measured phases' way.
	runtime.GC()
	debug.SetGCPercent(400)
}

// finish tallies the operations and fills the contract's metrics from
// the registry list, so that a metric the run did not produce shows as
// a failed check instead of a missing key.
func (r *runner) finish(list []metric) {
	d := &r.res.detail
	d.ops["recommend"], d.ops["batch"] = r.rd.rec, r.rd.batch
	d.ops["adopt"], d.ops["advance"] = r.fd.adopt, r.fd.advance
	for _, o := range d.ops {
		r.res.Attempted += o.Sent
		r.res.Failed += o.Failed
	}
	r.res.Metrics = make(map[string]value, len(list))
	for _, m := range list {
		v, ok := r.metrics[m.name]
		r.check(ok, "metric %s was not measured", m.name)
		r.res.Metrics[m.name] = value{v, m.unit}
	}
	r.res.Correct = len(d.checks) == 0 && r.res.Failed == 0
}

func (r result) contractLine() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain numbers and strings
	}
	return string(b)
}
