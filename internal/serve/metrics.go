package serve

import (
	"io"
	"sync"
	"time"

	"repro/internal/obs"
)

// latencySampleMask samples single-lookup latency 1-in-(mask+1): the
// sampling decision rides the recommend counter that the path loads
// anyway, so 7 out of 8 lookups skip both time.Now calls and the
// histogram observe entirely. mask must be 2^n - 1.
const latencySampleMask = 7

// traceSampleMask head-samples request trace spans 1-in-(mask+1),
// riding the same counter load as latency sampling. Much sparser than
// latency sampling: a span allocates, so it must stay off the zero-
// alloc unsampled path, and the ring only holds the last 64 traces
// anyway. mask must be 2^n - 1.
const traceSampleMask = 1023

// qpsWindow is the sliding window revmaxd_qps_window is computed over,
// and qpsMinGap the minimum spacing between retained samples — the
// window is a property of the meter, not of scrape cadence, so any
// number of concurrent scrapers observe the same well-defined rate.
const (
	qpsWindow = 10 * time.Second
	qpsMinGap = 500 * time.Millisecond
)

// qpsSample is one (time, cumulative lookups served) point on the QPS
// sample ring.
type qpsSample struct {
	at     time.Time
	served int64
}

// meter aggregates serving telemetry on an obs.Registry: lock-free
// counters and histograms on the hot path, gauge functions evaluated at
// scrape time, and a span tracer feeding /debug/traces.
type meter struct {
	start  time.Time
	reg    *obs.Registry
	tracer *obs.Tracer

	recommends *obs.Counter // single-user lookups served
	batchUsers *obs.Counter // users served through batch lookups
	feeds      *obs.Counter // feedback events accepted
	errors     *obs.Counter // requests rejected with an error

	lat  *obs.Histogram // sampled single-lookup latency
	blat *obs.Histogram // whole-batch-call latency, kept separate
	// so batch calls don't skew the per-lookup percentiles

	// replanSec times a whole replan: residual, solve, swap. The solve
	// families belong to the engine's planner.Replanner.
	replanSec *obs.Histogram

	// qmu guards the QPS sample ring; only scrapes touch it.
	qmu        sync.Mutex
	qpsSamples []qpsSample
}

// newMeter builds a meter on reg/tracer, allocating fresh ones when nil
// (the in-memory NewEngine path; Open passes the pair it created before
// the store so WAL metrics share the registry).
func newMeter(reg *obs.Registry, tracer *obs.Tracer) *meter {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if tracer == nil {
		tracer = obs.NewTracer(64)
	}
	lb := obs.LatencyBuckets()
	return &meter{
		start:  time.Now(),
		reg:    reg,
		tracer: tracer,
		recommends: reg.Counter("revmaxd_recommend_total",
			"Single-user recommendation lookups served."),
		batchUsers: reg.Counter("revmaxd_recommend_batch_users_total",
			"Users served through batch lookups."),
		feeds: reg.Counter("revmaxd_feedback_total",
			"Feedback events accepted."),
		errors: reg.Counter("revmaxd_request_errors_total",
			"Requests rejected with an error (unknown user/item, bad time step)."),
		lat: reg.Histogram("revmaxd_latency_seconds",
			"Single-lookup latency (sampled 1-in-8).", lb),
		blat: reg.Histogram("revmaxd_batch_latency_seconds",
			"Whole-batch-call latency.", lb),
		replanSec: reg.Histogram("revmaxd_replan_seconds",
			"End-to-end replan time: residual build, solve, plan swap.", lb),
	}
}

// served is the total number of user lookups (single + batch).
func (m *meter) served() int64 { return m.recommends.Value() + m.batchUsers.Value() }

// windowRate returns lookups per second over the trailing qpsWindow,
// maintaining the sample ring. Unlike a scrape-delta scheme, the result
// does not depend on who scraped last: concurrent or irregular scrapers
// all see the rate over the same window. 0 until two samples span a
// positive interval.
func (m *meter) windowRate(now time.Time, served int64) float64 {
	m.qmu.Lock()
	defer m.qmu.Unlock()
	// Drop old samples, but keep the newest one at or beyond the window
	// edge as the baseline so the rate always covers ~qpsWindow.
	for len(m.qpsSamples) >= 2 && now.Sub(m.qpsSamples[1].at) >= qpsWindow {
		m.qpsSamples = m.qpsSamples[1:]
	}
	if n := len(m.qpsSamples); n == 0 || now.Sub(m.qpsSamples[n-1].at) >= qpsMinGap {
		m.qpsSamples = append(m.qpsSamples, qpsSample{at: now, served: served})
	}
	base := m.qpsSamples[0]
	dt := now.Sub(base.at).Seconds()
	if dt <= 0 {
		return 0
	}
	return float64(served-base.served) / dt
}

// registerEngineMetrics installs the engine-state gauge and counter
// functions on the meter's registry. The functions run at scrape time
// while the registry renders (its mutex held), so they must read engine
// atomics and meter state only — never call back into the registry.
func registerEngineMetrics(e *Engine) {
	m := e.met
	reg := m.reg
	reg.GaugeFunc("revmaxd_uptime_seconds",
		"Seconds since the engine started.",
		func() float64 { return time.Since(m.start).Seconds() })
	reg.GaugeFunc("revmaxd_qps_avg",
		"Average lookups per second since start.",
		func() float64 {
			if up := time.Since(m.start).Seconds(); up > 0 {
				return float64(m.served()) / up
			}
			return 0
		})
	reg.GaugeFunc("revmaxd_qps_window",
		"Lookups per second over the trailing 10s window.",
		func() float64 { return m.windowRate(time.Now(), m.served()) })
	reg.GaugeFunc("revmaxd_plan_revision",
		"Revision of the live plan.",
		func() float64 {
			if p := e.plan.Load(); p != nil {
				return float64(p.revision)
			}
			return 0
		})
	reg.GaugeFunc("revmaxd_plan_revenue",
		"Expected residual revenue of the live plan.",
		func() float64 {
			if p := e.plan.Load(); p != nil {
				return p.revenue
			}
			return 0
		})
	reg.GaugeFunc("revmaxd_plan_triples",
		"Recommendation triples in the live plan.",
		func() float64 {
			if p := e.plan.Load(); p != nil {
				return float64(p.triples)
			}
			return 0
		})
	reg.GaugeFunc("revmaxd_plan_staleness_seconds",
		"Seconds since the live plan was installed.",
		func() float64 {
			if p := e.plan.Load(); p != nil && !p.installedAt.IsZero() {
				return time.Since(p.installedAt).Seconds()
			}
			return 0
		})
	reg.GaugeFunc("revmaxd_clock",
		"Current engine time step.",
		func() float64 { return float64(e.now.Load()) })
	reg.GaugeFunc("revmaxd_feedback_queue_depth",
		"Feedback events queued but not yet applied.",
		func() float64 { return float64(len(e.feedback)) })
	reg.GaugeFunc("revmaxd_wal_degraded",
		"1 when the engine has hit a durability error (see /v1/stats), else 0.",
		func() float64 {
			if e.Err() != nil {
				return 1
			}
			return 0
		})
	reg.CounterFunc("revmaxd_adoptions_total",
		"Adoptions applied to the store.",
		func() float64 { return float64(e.adoptions.Load()) })
	reg.CounterFunc("revmaxd_exposures_total",
		"Exposure events applied to the store.",
		func() float64 { return float64(e.exposures.Load()) })
	reg.CounterFunc("revmaxd_replans_total",
		"Background receding-horizon replans completed.",
		func() float64 { return float64(e.replans.Load()) })
}

// WriteMetrics renders the engine's full registry — serve, solver, and
// (for durable engines) store families — in Prometheus text exposition
// format: the /metrics body.
func (e *Engine) WriteMetrics(w io.Writer) error {
	return e.met.reg.WritePrometheus(w)
}
