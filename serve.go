package revmax

import (
	"io"
	"net/http"

	"repro/internal/cluster"
	"repro/internal/planner"
	"repro/internal/serve"
)

// Online serving facade — the revmaxd subsystem: a sharded in-memory
// store answering per-user recommendation lookups under concurrency,
// with adoption feedback folded back into asynchronous receding-horizon
// replans. See internal/serve for the concurrency architecture and
// cmd/revmaxd for the daemon.
type (
	// ServeEngine is the online serving engine.
	ServeEngine = serve.Engine
	// ServeConfig tunes a ServeEngine: the planning algorithm by
	// solver-registry name (Algorithm + Solver options; the zero value
	// plans with G-Greedy; top-rating, which returns no
	// candidate-indexed plan, is rejected), shard count, and replan
	// cadence.
	ServeConfig = serve.Config
	// ServeEvent is one adoption-feedback event.
	ServeEvent = serve.Event
	// ServeRecommendation is one served recommendation with its
	// conditional adoption probability.
	ServeRecommendation = serve.Recommendation
	// ServeStats is the engine's point-in-time summary.
	ServeStats = serve.Stats
	// ServeDurability configures an engine's durable state: a
	// write-ahead log + snapshot directory (internal/store) with
	// log-then-apply semantics and crash recovery. Set it on
	// ServeConfig.Durability and boot with OpenServeEngine.
	ServeDurability = serve.Durability
	// PlannerFeedback is the observation bundle a replan conditions on.
	PlannerFeedback = planner.Feedback
)

// NewServeEngine plans an initial strategy for in and starts serving.
func NewServeEngine(in *Instance, cfg ServeConfig) (*ServeEngine, error) {
	return serve.NewEngine(in, cfg)
}

// OpenServeEngine is the durability-aware constructor: with
// cfg.Durability set it recovers the engine from the data directory
// when recoverable state exists (in may be nil) and boots fresh from
// in otherwise, stamping a base snapshot; without durability it equals
// NewServeEngine. Durable engines write every state mutation to the
// WAL before applying it and survive kill -9 up to the last synced
// barrier.
func OpenServeEngine(in *Instance, cfg ServeConfig) (*ServeEngine, error) {
	return serve.Open(in, cfg)
}

// RestoreServeEngine rebuilds an engine from a Snapshot image, serving
// the snapshotted plan warm (no replan at boot).
func RestoreServeEngine(r io.Reader, cfg ServeConfig) (*ServeEngine, error) {
	return serve.Restore(r, cfg)
}

// ServeHandler returns the HTTP/JSON API over e — the one mux revmaxd
// mounts over an engine or a cluster: /v1/recommend,
// /v1/recommend/batch, /v1/adopt, /v1/advance, /healthz, and the
// engine's own /v1/stats, /metrics and /debug/traces bodies.
func ServeHandler(e *ServeEngine) http.Handler { return serve.Handler(e) }

// ResidualInstance builds the remaining-horizon instance induced by fb
// on in — the replanning hook shared by Planner and ServeEngine.
func ResidualInstance(in *Instance, fb PlannerFeedback) *Instance {
	return planner.Residual(in, fb)
}

// Sharded serving facade — the scale-out subsystem: N engine shards
// partitioning the user base behind a router, with cross-shard stock
// and distinct-user display quotas owned by a coordinator that replans
// globally at flush barriers. Sharded serving is byte-identical to a
// single engine on the same instance. See internal/cluster.
type (
	// Cluster is a user-sharded fleet of serving engines behind one
	// router and stock/quota coordinator.
	Cluster = cluster.Cluster
	// ClusterConfig tunes a Cluster: shard count, the coordinator's
	// planning algorithm (a servable one, as for ServeConfig: the
	// coordinator installs its candidate-indexed plan, never a
	// strategy), and the durable cluster root.
	ClusterConfig = cluster.Config
	// ClusterCoordinatorStats summarizes the coordinator's reservation
	// ledger: reconcile rounds, re-grants, outstanding reservations,
	// remaining stock (quota denials always read 0).
	ClusterCoordinatorStats = cluster.CoordinatorStats
)

// NewCluster partitions in across cfg.Shards engines and starts
// serving. Durable configs must use OpenCluster.
func NewCluster(in *Instance, cfg ClusterConfig) (*Cluster, error) {
	return cluster.New(in, cfg)
}

// OpenCluster is the durability-aware cluster constructor: with
// cfg.Durability set it recovers every shard and the coordinator ledger
// from the cluster root when state exists (in may be nil) and boots
// fresh otherwise; without durability it equals NewCluster.
func OpenCluster(in *Instance, cfg ClusterConfig) (*Cluster, error) {
	return cluster.Open(in, cfg)
}

// ClusterHandler returns the HTTP/JSON API over c: the same mux as
// ServeHandler, routed through the cluster, with the cluster's own
// /v1/stats (merged, coordinator and per-shard summaries), /metrics (a
// shard label per engine series) and /debug/traces (spans grouped by
// trace ID) bodies.
func ClusterHandler(c *Cluster) http.Handler { return cluster.Handler(c) }
