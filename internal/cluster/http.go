package cluster

import (
	"encoding/json"
	"io"
	"net/http"

	"repro/internal/serve"
)

// CoordinatorStats is the coordinator's own summary, exposed alongside
// the merged serving stats.
type CoordinatorStats struct {
	Shards          int   `json:"shards"`
	ReconcileRounds int64 `json:"reconcile_rounds"`
	Regrants        int64 `json:"regrants"`
	// QuotaDenials is always 0: every plan the coordinator installs is a
	// servable solver's candidate-indexed plan, which it never trims.
	// The field stays for readers of the stats schema.
	QuotaDenials            int64 `json:"quota_denials"`
	OutstandingReservations int64 `json:"outstanding_reservations"`
	StockRemaining          int64 `json:"stock_remaining"`
	Replans                 int64 `json:"replans"`
}

// CoordinatorStats returns the coordinator's current counters.
func (c *Cluster) CoordinatorStats() CoordinatorStats {
	return CoordinatorStats{
		Shards:                  c.n,
		ReconcileRounds:         c.co.reconciles.Value(),
		Regrants:                c.co.regrants.Value(),
		OutstandingReservations: int64(c.co.outstanding.Value()),
		StockRemaining:          int64(c.co.remaining.Value()),
		Replans:                 c.replans.Load(),
	}
}

// statsResponse is the /v1/stats payload: the merged fleet-wide
// serve.Stats inlined at the top level (field-compatible with a
// single-engine daemon's response — dashboards keyed on .adoptions or
// .plan_revenue read both), plus the coordinator's summary and the raw
// per-shard stats.
type statsResponse struct {
	serve.Stats
	Cluster  CoordinatorStats `json:"cluster"`
	PerShard []serve.Stats    `json:"per_shard"`
}

// WriteStats writes the /v1/stats JSON body: a statsResponse.
func (c *Cluster) WriteStats(w io.Writer) error {
	samples := c.StatsSamples()
	per := make([]serve.Stats, len(samples))
	for k, s := range samples {
		per[k] = s.Stats
	}
	return json.NewEncoder(w).Encode(statsResponse{Stats: c.Stats(), Cluster: c.CoordinatorStats(), PerShard: per})
}

// Handler returns the HTTP/JSON API over c: serve.Handler, the one mux
// an engine and a cluster share. Requests route through the cluster; the
// three backend-specific bodies are the cluster's own — WriteStats (the
// merged stats plus coordinator and per-shard summaries), WriteMetrics
// (the merged exposition, a shard label on every engine series) and
// WriteTraces (spans labeled coord or shard index, grouped by trace ID).
// /v1/advance runs the coordinated barrier before replying, so the
// first recommendation at the new step sees a reconciled, replanned
// fleet, and an X-Trace-Id request is traced under that ID across the
// coordinator and every shard it touches.
func Handler(c *Cluster) http.Handler { return serve.Handler(c) }
