package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/serve"
	"repro/internal/solver"
	"repro/internal/store"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's own files. The spans of one HTTP request share Request;
// Parent names the span that caused this one.
type span struct {
	Name    string
	Parent  string
	Request uint64
	StartNS int64 // since the trace began
	EndNS   int64
}

// tracer keeps spans in memory until the run ends. Requests are traced
// from the instant `from` on, so that one steady phase yields both the
// spans-off and the spans-on latencies.
type tracer struct {
	begin time.Time
	from  time.Time

	mu      sync.Mutex
	spans   []span
	lastID  uint64
	handler map[uint64]time.Duration // request id → wrapping-handler span
}

func newTracer() *tracer {
	return &tracer{begin: time.Now(), handler: make(map[uint64]time.Duration)}
}

func (t *tracer) add(s span, start, end time.Time) {
	s.StartNS, s.EndNS = start.Sub(t.begin).Nanoseconds(), end.Sub(t.begin).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) next() uint64 {
	if t.from.IsZero() || time.Now().Before(t.from) {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lastID++
	return t.lastID
}

func (t *tracer) client(op string, id uint64, start, end time.Time) {
	t.add(span{Name: "client." + op, Request: id}, start, end)
}

// wrap is the span around serve.Handler / cluster.Handler, joined to
// the client's span by the request-id header.
func (t *tracer) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := r.Header.Get(requestIDHeader)
		if h == "" {
			next.ServeHTTP(w, r)
			return
		}
		id, _ := strconv.ParseUint(h, 10, 64)
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		t.add(span{Name: "http.handler", Parent: "client", Request: id}, start, end)
		t.mu.Lock()
		t.handler[id] = end.Sub(start)
		t.mu.Unlock()
	})
}

// layer times one call into a layer's public API and records its span.
func (t *tracer) layer(name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(span{Name: name, Parent: "probe"}, start, end)
	return end.Sub(start)
}

// each times n calls and records one span for the group; the samples
// are per call, in microseconds.
func (t *tracer) each(name string, n int, fn func(i int)) samples {
	out := make(samples, 0, n)
	begin := time.Now()
	for i := 0; i < n; i++ {
		start := time.Now()
		fn(i)
		out = append(out, micros(time.Since(start)))
	}
	t.add(span{Name: name, Parent: "probe"}, begin, time.Now())
	return out
}

// requestSelf splits the traced requests of one operation into the
// client round trip and its self time: the round trip minus the
// wrapping-handler span, which is the kernel's loopback, net/http's
// connection handling and this client.
func (t *tracer) requestSelf(op string) (roundTrip, self samples) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name != "client."+op {
			continue
		}
		if inner, ok := t.handler[s.Request]; ok {
			rt := time.Duration(s.EndNS - s.StartNS)
			roundTrip = append(roundTrip, micros(rt))
			self = append(self, micros(rt-inner))
		}
	}
	return roundTrip, self
}

// traceFile is the span file: a run records half a million spans, so
// names are a table and each span a row of columns.
type traceFile struct {
	Names   []string   `json:"names"`
	Columns []string   `json:"columns"`
	Spans   [][5]int64 `json:"spans"`
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	file := traceFile{
		Names:   []string{""},
		Columns: []string{"name", "parent", "request", "start_ns", "end_ns"},
		Spans:   make([][5]int64, len(t.spans)),
	}
	index := map[string]int64{"": 0}
	intern := func(name string) int64 {
		i, ok := index[name]
		if !ok {
			i = int64(len(file.Names))
			index[name] = i
			file.Names = append(file.Names, name)
		}
		return i
	}
	for i, s := range t.spans {
		file.Spans[i] = [5]int64{intern(s.Name), intern(s.Parent), int64(s.Request), s.StartNS, s.EndNS}
	}
	b, err := json.Marshal(file)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// probeCalls is how many direct calls back each per-call median.
const probeCalls = 2000

// traced hosts the workload's stack in this process, runs the same
// traffic with a span at each boundary the benchmark can reach from
// outside, then measures each layer through its public API on the
// state that traffic left behind.
func (h *harness) traced(w workload) (result, error) {
	dir, err := h.runDir(w)
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	tr := newTracer()
	p := &layerProbe{w: w, set: h.set, tr: tr, dir: dir, m: make(map[string]float64)}
	res, err := p.run()
	if err != nil {
		return result{}, err
	}
	file := filepath.Join(h.root, buildDir, "trace-"+w.name+".json")
	if err := tr.write(file); err != nil {
		return result{}, err
	}
	res.detail.extra["trace.spans"] = value{float64(len(tr.spans)), "count"}
	res.detail.traceFile = file
	return res, nil
}

type layerProbe struct {
	w   workload
	set settings
	tr  *tracer
	dir string
	m   map[string]float64

	r   *runner
	tgt *inprocTarget
	rng *rand.Rand
}

func (p *layerProbe) run() (result, error) {
	tr, m, seed := p.tr, p.m, p.set.seed
	p.rng = newRNG(seed, streamProbe+1)

	// dataset and solver on their own, then the reference engine, whose
	// construction is serve's boot.
	var in *model.Instance
	var err error
	m["dataset.build_ms"] = millis(tr.layer("dataset.Build", func() { in, err = buildInstance(p.set.users, seed) }))
	if err != nil {
		return result{}, err
	}
	opts := solverOptions(seed)
	opts.Algorithm = algorithm
	var cold solver.Result
	m["solver.solve_cold_ms"] = millis(tr.layer("solver.Solve", func() { cold, err = solver.Solve(context.Background(), in, opts) }))
	if err != nil {
		return result{}, err
	}
	m["solver.selections"] = float64(cold.Selections)
	m["solver.recomputations"] = float64(cold.Recomputations)
	m["solver.heap_pops"] = float64(cold.Stats.HeapPops)
	ref := &reference{in: in}
	m["serve.boot_ms"] = millis(tr.layer("serve.NewEngine", func() { ref.eng, err = serve.NewEngine(in, workload{}.engineConfig(seed, "")) }))
	if err != nil {
		return result{}, err
	}
	defer ref.eng.Close()
	ref.stats = ref.eng.Stats()

	// The hosted stack under the same traffic, spans on for the second
	// half of the steady phase.
	p.tgt = &inprocTarget{w: p.w, users: p.set.users, seed: seed, dir: filepath.Join(p.dir, "data"), wrap: tr.wrap}
	defer p.tgt.kill()
	set := p.set
	set.boots = 1
	p.r = &runner{w: p.w, set: set, tgt: p.tgt, ref: ref, sink: tr}
	r := p.r
	r.init()
	if err := r.boot(); err != nil {
		return result{}, err
	}
	tr.from = time.Now().Add(set.steady / 2)
	if err := r.steady(set.steady); err != nil {
		return result{}, err
	}
	if _, err := r.drain("after steady phase"); err != nil {
		return result{}, err
	}
	if err := r.servedZero(); err != nil {
		return result{}, err
	}
	if err := p.hosted(); err != nil {
		return result{}, err
	}

	// Each layer through its public API. The workload's own serving
	// layer is the hosted one; the other is a shadow fed the same events.
	eng, cl := p.tgt.eng, p.tgt.cl
	if eng == nil {
		eng = ref.eng
		p.replay(eng.Feed)
		eng.Flush()
	} else {
		cfg := workload{shards: 2}.clusterConfig(seed, "")
		if cl, err = cluster.Open(in, cfg); err != nil {
			return result{}, err
		}
		defer cl.Close()
		p.replay(cl.Feed)
		cl.Flush()
	}
	if err := r.quiesce(); err != nil {
		return result{}, err
	}
	if err := p.engine(eng, opts); err != nil {
		return result{}, err
	}
	p.cluster(cl)
	p.session(in)
	// What the engine's replan adds around the planner and solver: the
	// feedback copy, plan build, revenue and swap.
	if p.w.incremental {
		m["serve.replan_self_ms"] = m["serve.flush_replan_ms"] - m["core.session_solve_ms"]
	} else {
		m["serve.replan_self_ms"] = m["serve.flush_replan_ms"] - m["planner.residual_ms"] - m["solver.solve_residual_ms"]
	}
	if p.tgt.cl != nil {
		p.codec(cluster.Handler(cl), func(u model.UserID, t model.TimeStep) { _, _ = cl.Recommend(u, t) },
			func(us []model.UserID, t model.TimeStep) { _, _ = cl.RecommendBatch(us, t) },
			func(ev serve.Event) { _ = cl.Feed(ev) })
	} else {
		p.codec(serve.Handler(eng), func(u model.UserID, t model.TimeStep) { _, _ = eng.Recommend(u, t) },
			func(us []model.UserID, t model.TimeStep) { _, _ = eng.RecommendBatch(us, t) },
			func(ev serve.Event) { _ = eng.Feed(ev) })
	}
	if err := p.store(eng); err != nil {
		return result{}, err
	}
	if err := p.recover(in); err != nil {
		return result{}, err
	}

	for k, v := range m {
		r.metrics[k] = v
	}
	r.finish(perLayer)
	return r.res, nil
}

// replay feeds the steady phase's acknowledged events to a shadow.
func (p *layerProbe) replay(feed func(serve.Event) error) {
	for _, ev := range p.r.fd.events {
		p.r.check(feed(ev) == nil, "shadow rejected event %+v", ev)
	}
}

// hosted derives what only the hosted stack under traffic can give:
// the network share of a round trip, what tracing cost, how late the
// feed ran, and the stack's own counters.
func (p *layerProbe) hosted() error {
	r, m, tr := p.r, p.m, p.tr
	extra := r.res.detail.extra
	m["loadgen.late_p99_us"] = extra["steady.late_p99_us"].Value
	rec, batch, feed := r.rd.recLat.lat.sorted(), r.rd.batchLat.lat.sorted(), r.fd.adoptDue.sorted()
	m["client.recommend_p50_us"], m["client.recommend_p99_us"] = rec.quantile(0.50), rec.quantile(0.99)
	m["client.batch_p50_us"], m["client.batch_p99_us"] = batch.quantile(0.50), batch.quantile(0.99)
	m["client.adopt_p50_us"], m["client.adopt_p99_us"] = feed.quantile(0.50), feed.quantile(0.99)
	m["daemon.replans"] = extra["steady.replans"].Value
	m["daemon.replan_rate_hz"] = extra["steady.replan_rate_hz"].Value

	_, self := tr.requestSelf("recommend")
	m["http.net_us"] = self.sorted().quantile(0.5)
	// Samples are appended in order and tracing switches on once, so the
	// traced requests are the tail of the steady phase's samples.
	if all, traced := r.rd.recLat.lat, len(self); traced > 0 && traced < len(all) {
		off, on := all[:len(all)-traced].sorted().quantile(0.5), all[len(all)-traced:].sorted().quantile(0.5)
		m["loadgen.trace_overhead_pct"] = 100 * (on - off) / off
	}

	status, err := r.b.do("GET", "/metrics", nil, 0)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("GET /metrics: status %d: %v", status, err)
	}
	own := sumExposition(r.b.body.String())
	m["daemon.fsyncs"] = own["revmaxd_wal_fsync_seconds_count"]
	m["daemon.solve_recomputations"] = own["revmaxd_solve_recomputations_total"]

	m["store.wal_bytes_per_event"] = 0
	if p.w.durable {
		n, err := walBytes(p.tgt.dataDir())
		if err != nil {
			return err
		}
		m["store.wal_bytes_per_event"] = float64(n) / float64(len(r.fd.events))
	}
	return nil
}

// sumExposition sums a Prometheus text exposition's samples by metric
// name, across label sets (a cluster labels each series by shard).
func sumExposition(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, _ := strings.Cut(line, " ")
		if i := strings.IndexByte(line, '{'); i >= 0 && i < len(name) {
			name = line[:i]
			rest = line[strings.LastIndexByte(line, '}')+1:]
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err == nil {
			out[name] += v
		}
	}
	return out
}

func (p *layerProbe) users(n int) []model.UserID {
	us := make([]model.UserID, n)
	for i := range us {
		us[i] = model.UserID(p.rng.IntN(p.set.users))
	}
	return us
}

// exposure is an event that changes no plan: an exposure without
// adoption, the cheapest thing the feed path carries.
func (p *layerProbe) exposure() serve.Event {
	ev := p.r.fd.event(p.rng)
	ev.Adopted = false
	return ev
}

// burst feeds burstSize fresh adoptions and flushes, rounds times, and
// returns each round's duration in milliseconds.
func (p *layerProbe) burst(name string, rounds int, feed func(serve.Event) error, flush func()) []float64 {
	var out []float64
	for i := 0; i < rounds; i++ {
		out = append(out, millis(p.tr.layer(name, func() {
			for j := 0; j < burstSize; j++ {
				ev := p.r.fd.freshAdoption(p.rng)
				p.r.fd.adopted[userClass{ev.User, p.r.ref.in.Class(ev.Item)}] = true
				p.r.check(feed(ev) == nil, "%s: feed failed", name)
			}
			flush()
		})))
	}
	return out
}

// engine measures serve, planner and the residual solve on eng.
func (p *layerProbe) engine(eng *serve.Engine, opts solver.Options) error {
	m, tr := p.m, p.tr
	now := model.TimeStep(p.r.now.Load())
	us := p.users(probeCalls)
	m["serve.recommend_us"] = median(tr.each("Engine.Recommend", probeCalls, func(i int) { _, _ = eng.Recommend(us[i], now) }))
	batch := p.users(batchSize)
	m["serve.recommend_batch64_us"] = median(tr.each("Engine.RecommendBatch", probeCalls/batchEvery, func(int) { _, _ = eng.RecommendBatch(batch, now) }))
	m["serve.feed_us"] = median(tr.each("Engine.Feed", probeCalls/4, func(int) { _ = eng.Feed(p.exposure()) }))
	eng.Flush()

	var fb planner.Feedback
	var err error
	var snaps []float64
	for i := 0; i < 3; i++ {
		snaps = append(snaps, millis(tr.layer("Engine.Feedback", func() { fb, err = eng.Feedback() })))
		if err != nil {
			return err
		}
	}
	m["serve.feedback_snapshot_ms"] = median(snaps)
	var residual *model.Instance
	m["planner.residual_ms"] = millis(tr.layer("planner.Residual", func() { residual = planner.Residual(eng.Instance(), fb) }))
	m["solver.solve_residual_ms"] = millis(tr.layer("solver.Solve residual", func() { _, err = solver.Solve(context.Background(), residual, opts) }))
	if err != nil {
		return err
	}
	m["serve.flush_replan_ms"] = median(p.burst("Engine.Feed+Flush", 3, eng.Feed, eng.Flush))
	return nil
}

// cluster measures the router and the coordinator barrier on cl.
func (p *layerProbe) cluster(cl *cluster.Cluster) {
	m, tr := p.m, p.tr
	now := cl.Now()
	us := p.users(probeCalls)
	m["cluster.recommend_us"] = median(tr.each("Cluster.Recommend", probeCalls, func(i int) { _, _ = cl.Recommend(us[i], now) }))
	batch := p.users(batchSize)
	m["cluster.recommend_batch64_us"] = median(tr.each("Cluster.RecommendBatch", probeCalls/batchEvery, func(int) { _, _ = cl.RecommendBatch(batch, now) }))
	m["cluster.feed_us"] = median(tr.each("Cluster.Feed", probeCalls/4, func(int) {
		ev := p.exposure()
		ev.T = now
		_ = cl.Feed(ev)
	}))
	cl.Flush()
	m["cluster.flush_barrier_ms"] = median(p.burst("Cluster.Feed+Flush", 3, func(ev serve.Event) error {
		ev.T = now
		return cl.Feed(ev)
	}, cl.Flush))
	var advances []float64
	for step := model.TimeStep(2); int(step) <= p.r.ref.in.T; step++ {
		to := max(step, cl.Now())
		advances = append(advances, millis(tr.layer("Cluster.SetNow", func() {
			p.r.check(cl.SetNow(to) == nil, "Cluster.SetNow(%d) failed", to)
		})))
	}
	m["cluster.setnow_ms"] = median(advances)
	cs := cl.CoordinatorStats()
	m["cluster.barriers"] = float64(cs.ReconcileRounds)
	m["cluster.quota_denials"] = float64(cs.QuotaDenials)
}

// session feeds a shadow core.Session the same events and measures the
// delta path: Observe per event, Solve after a burst-sized delta.
func (p *layerProbe) session(in *model.Instance) {
	m, tr, events := p.m, p.tr, p.r.fd.events
	// Seeded, as -incremental -warm-start runs it on feedback_incremental.
	sess := core.NewSession(in, core.SessionConfig{Seeded: true, MaxExposures: 64})
	sess.Solve()
	m["core.session_observe_us"] = median(tr.each("Session.Observe", len(events), func(i int) {
		ev := events[i]
		sess.Observe(ev.User, ev.Item, ev.T, ev.Adopted)
	}))
	now := model.TimeStep(p.r.now.Load())
	sess.Advance(now)
	sess.Solve()
	var solves []float64
	for i := 0; i < 3; i++ {
		for j := 0; j < burstSize; j++ {
			ev := p.r.fd.freshAdoption(p.rng)
			p.r.fd.adopted[userClass{ev.User, in.Class(ev.Item)}] = true
			sess.Observe(ev.User, ev.Item, now, true)
		}
		solves = append(solves, millis(tr.layer("Session.Solve", func() { sess.Solve() })))
	}
	m["core.session_solve_ms"] = median(solves)
	st := sess.LastStats()
	m["core.session_dirty_cands"] = float64(st.DirtyCands)
	m["core.session_restored_pairs"] = float64(st.RestoredPairs)
}

// codec replays requests against Handler.ServeHTTP with a recorder and
// against the same layer's Go methods; the difference is routing plus
// JSON. With the network share it also closes each round trip's books:
// what is left is unattributed.
func (p *layerProbe) codec(h http.Handler, recommend func(model.UserID, model.TimeStep), batch func([]model.UserID, model.TimeStep), feed func(serve.Event)) {
	m, tr := p.m, p.tr
	now := model.TimeStep(p.r.now.Load())
	serveHTTP := func(method, path string, body []byte) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req := httptest.NewRequest(method, path, rd)
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
	type op struct {
		name   string
		n      int
		viaGo  func(i int)
		viaAPI func(i int)
	}
	us := p.users(probeCalls)
	groups := make([][]model.UserID, probeCalls/batchEvery)
	bodies := make([][]byte, len(groups))
	for i := range groups {
		groups[i] = p.users(batchSize)
		bodies[i] = appendBatchRequest(nil, groups[i], now)
	}
	for _, o := range []op{
		{"recommend", probeCalls,
			func(i int) { recommend(us[i], now) },
			func(i int) {
				serveHTTP("GET", "/v1/recommend?user="+strconv.Itoa(int(us[i]))+"&t="+strconv.Itoa(int(now)), nil)
			}},
		{"batch", len(groups),
			func(i int) { batch(groups[i], now) },
			func(i int) { serveHTTP("POST", "/v1/recommend/batch", bodies[i]) }},
		{"adopt", probeCalls / 4,
			func(int) { ev := p.exposure(); ev.T = now; feed(ev) },
			func(int) {
				ev := p.exposure()
				ev.T = now
				body, _ := json.Marshal(ev)
				serveHTTP("POST", "/v1/adopt", body)
			}},
	} {
		direct := median(tr.each("direct "+o.name, o.n, o.viaGo))
		handled := median(tr.each("Handler.ServeHTTP "+o.name, o.n, o.viaAPI))
		m["http."+o.name+"_codec_us"] = handled - direct
		roundTrip, self := tr.requestSelf(o.name)
		if len(roundTrip) == 0 {
			continue
		}
		rt := median(roundTrip)
		m[o.name+".unattributed_pct"] = 100 * (rt - median(self) - handled) / rt
	}
}

// store measures a shadow write-ahead log holding the same records
// under each fsync policy, then its replay and a snapshot write.
func (p *layerProbe) store(eng *serve.Engine) error {
	m, tr, events := p.m, p.tr, p.r.fd.events
	record := func(i int) store.Record {
		ev := events[i%len(events)]
		return store.Record{Type: store.RecEvent, User: int32(ev.User), Item: int32(ev.Item), T: int32(ev.T), Adopted: ev.Adopted}
	}
	open := func(policy store.SyncPolicy) (*store.Store, string, error) {
		dir := filepath.Join(p.dir, "shadow-wal-"+policy.String())
		st, err := store.Open(dir, store.Options{SyncPolicy: policy})
		return st, dir, err
	}

	st, dir, err := open(store.SyncNone)
	if err != nil {
		return err
	}
	defer st.Close()
	m["store.append_us"] = median(tr.each("Store.Append none", len(events), func(i int) {
		_, err := st.Append(record(i))
		p.r.check(err == nil, "Store.Append: %v", err)
	}))
	if err := st.Sync(); err != nil {
		return err
	}
	n, err := walBytes(dir)
	if err != nil {
		return err
	}
	m["store.bytes_per_record"] = float64(n) / float64(len(events))
	var replayed store.ReplayStats
	m["store.replay_ms"] = millis(tr.layer("Store.Replay", func() {
		replayed, err = st.Replay(0, func(store.LSN, store.Record) error { return nil })
	}))
	if err != nil {
		return err
	}
	m["store.replay_records"] = float64(replayed.Records)
	m["store.write_snapshot_ms"] = millis(tr.layer("Store.WriteSnapshot", func() {
		err = st.WriteSnapshot(st.NextLSN(), eng.Snapshot)
	}))
	if err != nil {
		return err
	}

	always, _, err := open(store.SyncAlways)
	if err != nil {
		return err
	}
	defer always.Close()
	m["store.append_sync_us"] = median(tr.each("Store.Append always", min(len(events), probeCalls/2), func(i int) {
		_, err := always.Append(record(i))
		p.r.check(err == nil, "Store.Append: %v", err)
	}))

	batched, _, err := open(store.SyncBatch)
	if err != nil {
		return err
	}
	defer batched.Close()
	next := 0
	var syncs samples
	for g := 0; g < probeCalls/burstSize; g++ {
		for j := 0; j < burstSize; j++ {
			if _, err := batched.Append(record(next)); err != nil {
				return err
			}
			next++
		}
		syncs = append(syncs, micros(tr.layer("Store.Sync batch", func() { err = batched.Sync() })))
		if err != nil {
			return err
		}
	}
	m["store.sync_us"] = median(syncs)
	return nil
}

// recover measures serve.Open on a killed durable dir that holds the
// steady phase's events: the hosted engine's own dir when the workload
// is durable, a shadow durable engine's otherwise.
func (p *layerProbe) recover(in *model.Instance) error {
	w, dataDir := p.w, p.tgt.dataDir()
	if w.durable && p.tgt.eng != nil {
		if err := p.tgt.kill(); err != nil {
			return err
		}
	} else {
		w, dataDir = workload{durable: true}, filepath.Join(p.dir, "shadow-engine")
		eng, err := serve.Open(in, w.engineConfig(p.set.seed, dataDir))
		if err != nil {
			return err
		}
		p.replay(eng.Feed)
		eng.Flush()
		eng.Kill()
	}
	var eng *serve.Engine
	var err error
	p.m["serve.open_recover_ms"] = millis(p.tr.layer("serve.Open recover", func() {
		eng, err = serve.Open(nil, w.engineConfig(p.set.seed, dataDir))
	}))
	if err != nil {
		return err
	}
	eng.Kill()
	return nil
}
