package cluster

import (
	"time"

	"repro/internal/obs"
)

// newClusterSLO builds the coordinator-level watchdog on the
// coordinator's registry (its families are the unlabeled ones in the
// merged /metrics). It watches the couplings no single shard can see:
// barrier duration, staleness of the one global plan, the fleet-wide
// error rate, and the merged p99 of recommendation latency across all
// shards. Per-shard watchdogs run independently inside each engine.
// Returns nil when disabled; every watchdog method is nil-safe.
func newClusterSLO(c *Cluster) *obs.SLOWatchdog {
	if c.cfg.SLO.Disable {
		return nil
	}
	cfg := c.cfg.SLO.WithDefaults()
	w := obs.NewSLOWatchdog(c.co.reg, c.logger)
	w.Add(obs.WindowQuantileObjective("barrier_p99", c.co.barrierSec, 0.99, cfg.ReplanP99.Seconds()))
	w.Add(obs.GaugeObjective("plan_staleness", cfg.PlanStaleness.Seconds(), func() float64 {
		if ns := c.lastReplan.Load(); ns > 0 {
			return time.Since(time.Unix(0, ns)).Seconds()
		}
		return 0
	}))
	w.Add(obs.WindowRateObjective("error_rate", cfg.ErrorRate,
		func() int64 { return c.Stats().RequestErrors },
		func() int64 {
			st := c.Stats()
			return st.Recommends + st.BatchUsers + st.RequestErrors
		}))
	// The merged recommend p99 has no single histogram to window over;
	// the probe keeps the previous merged snapshot and quantiles the
	// delta — the same rolling window WindowQuantileObjective computes,
	// over the union of every shard's observations. The closure's state
	// is guarded by the watchdog's evaluation lock.
	var prev obs.HistogramSnapshot
	w.Add(obs.NewObjective("recommend_p99", cfg.RecommendP99.Seconds(), func() float64 {
		var cur obs.HistogramSnapshot
		for _, s := range c.StatsSamples() {
			cur = cur.Merge(s.Latency)
		}
		win := cur.Delta(prev)
		prev = cur
		return win.Quantile(0.99)
	}))
	return w
}
