package serve

import (
	"time"

	"repro/internal/obs"
)

// SLOConfig tunes the engine's in-process SLO watchdog — the rolling-
// window objectives evaluated on a ticker from the metrics the engine
// already keeps (internal/obs.SLOWatchdog). The zero value enables the
// watchdog with the defaults below; set Disable to opt out entirely.
type SLOConfig struct {
	// Disable turns the watchdog off: no objectives, no ticker, and
	// /healthz reports plain ok.
	Disable bool
	// Interval between evaluations; it is also the rolling window the
	// quantile and rate objectives are computed over. Default 10s.
	Interval time.Duration
	// RecommendP99 bounds the windowed p99 of sampled single-lookup
	// latency. Default 50ms.
	RecommendP99 time.Duration
	// ErrorRate bounds windowed rejected requests per accepted+rejected
	// request. Default 0.01.
	ErrorRate float64
	// PlanStaleness bounds seconds since the live plan was installed —
	// a stuck replan loop breaches it long before anything else does.
	// Default 1h.
	PlanStaleness time.Duration
	// ReplanP99 bounds the windowed p99 of end-to-end replan time (and,
	// in a cluster, of coordinated barrier duration). Default 10s.
	ReplanP99 time.Duration
}

// WithDefaults returns c with every unset objective replaced by its
// default. Exported because the cluster reuses SLOConfig for its
// coordinator-level watchdog and must resolve the same defaults.
func (c SLOConfig) WithDefaults() SLOConfig {
	out := c
	if out.Interval <= 0 {
		out.Interval = 10 * time.Second
	}
	if out.RecommendP99 <= 0 {
		out.RecommendP99 = 50 * time.Millisecond
	}
	if out.ErrorRate <= 0 {
		out.ErrorRate = 0.01
	}
	if out.PlanStaleness <= 0 {
		out.PlanStaleness = time.Hour
	}
	if out.ReplanP99 <= 0 {
		out.ReplanP99 = 10 * time.Second
	}
	return out
}

// newEngineSLO builds the engine's watchdog on its own registry and
// logger. Runs during shell construction — cfg is already defaulted —
// and returns nil when disabled, which every watchdog method treats as
// a healthy no-op.
func newEngineSLO(e *Engine) *obs.SLOWatchdog {
	cfg := e.cfg.SLO
	if cfg.Disable {
		return nil
	}
	m := e.met
	w := obs.NewSLOWatchdog(m.reg, e.logger)
	w.Add(obs.WindowQuantileObjective("recommend_p99", m.lat, 0.99, cfg.RecommendP99.Seconds()))
	w.Add(obs.WindowRateObjective("error_rate", cfg.ErrorRate,
		func() int64 { return m.errors.Value() },
		func() int64 { return m.served() + m.feeds.Value() + m.errors.Value() }))
	w.Add(obs.GaugeObjective("plan_staleness", cfg.PlanStaleness.Seconds(), func() float64 {
		if p := e.plan.Load(); p != nil && !p.installedAt.IsZero() {
			return time.Since(p.installedAt).Seconds()
		}
		return 0
	}))
	w.Add(obs.WindowQuantileObjective("replan_p99", m.replanSec, 0.99, cfg.ReplanP99.Seconds()))
	return w
}

// healthResponse is the /healthz payload: always HTTP 200 (liveness is
// "the process answers"), with status "degraded" and the failing
// objectives when the watchdog or durability is unhappy. A cluster lists
// its coordinator-level objectives; per-shard verdicts live on each
// shard's registry in /metrics.
type healthResponse struct {
	Status string          `json:"status"` // "ok" | "degraded"
	SLOs   []obs.SLOStatus `json:"slos,omitempty"`
	Error  string          `json:"error,omitempty"` // first durability error
}

func health(b Backend) healthResponse {
	h := healthResponse{Status: "ok"}
	if wd := b.SLO(); wd != nil {
		h.SLOs = wd.Status()
		if !wd.Healthy() {
			h.Status = "degraded"
		}
	}
	if err := b.Err(); err != nil {
		h.Status = "degraded"
		h.Error = err.Error()
	}
	return h
}
