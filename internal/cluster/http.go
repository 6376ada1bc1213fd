package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/serve"
)

// CoordinatorStats is the coordinator's own summary, exposed alongside
// the merged serving stats.
type CoordinatorStats struct {
	Shards                  int   `json:"shards"`
	ReconcileRounds         int64 `json:"reconcile_rounds"`
	Regrants                int64 `json:"regrants"`
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
		QuotaDenials:            c.co.denials.Value(),
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

// traceContext is the cluster's X-Trace-Id entry point, mirroring the
// engine handler's: a valid header opens a root span on the coordinator
// tracer continuing the caller's trace, echoes the normalized ID back,
// and threads the span through the routed call. Requests without the
// header pay one header lookup.
func traceContext(tr *obs.Tracer, w http.ResponseWriter, r *http.Request, op string) (context.Context, *obs.Span) {
	h := r.Header.Get("X-Trace-Id")
	if h == "" {
		return r.Context(), nil
	}
	tid, err := obs.ParseTraceID(h)
	if err != nil || tid == 0 {
		return r.Context(), nil
	}
	sp := tr.StartRemote(op, tid, 0)
	if sp == nil { // tracing disabled
		return r.Context(), nil
	}
	w.Header().Set("X-Trace-Id", obs.FormatTraceID(tid))
	return obs.ContextWithSpan(r.Context(), sp), sp
}

// Handler returns the HTTP/JSON API over c — the same endpoints as
// serve.Handler, routed through the cluster:
//
//	GET  /healthz                  liveness + cluster SLO verdicts (JSON)
//	GET  /v1/recommend?user=U&t=T  one user's recommendations at T
//	POST /v1/recommend/batch       {"users":[...],"t":T}
//	POST /v1/adopt                 {"user":U,"item":I,"t":T,"adopted":B}
//	POST /v1/advance               {"now":T} — move the cluster clock and
//	                               run the coordinated barrier before
//	                               replying, so the first recommendation
//	                               at the new step sees a reconciled,
//	                               replanned fleet
//	GET  /v1/stats                 merged + per-shard summary (JSON)
//	GET  /metrics                  merged Prometheus exposition
//	GET  /debug/traces             merged trace timelines (one JSON doc,
//	                               spans labeled coord / shard index,
//	                               grouped by trace ID)
//
// Request endpoints honor an X-Trace-Id header (16 hex digits): the
// request — and, for /v1/advance, the coordinated barrier it forces —
// is traced under that ID across the coordinator and every shard it
// touches.
func Handler(c *Cluster) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, clusterHealth(c))
	})
	mux.HandleFunc("GET /v1/recommend", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		user, err1 := strconv.Atoi(q.Get("user"))
		t, err2 := strconv.Atoi(q.Get("t"))
		if err1 != nil || err2 != nil {
			httpError(w, http.StatusBadRequest, "user and t must be integers")
			return
		}
		ctx, sp := traceContext(c.tracer, w, r, "http.recommend")
		recs, err := c.RecommendCtx(ctx, model.UserID(user), model.TimeStep(t))
		sp.End()
		if err != nil {
			httpError(w, serve.ErrorStatus(err), err.Error())
			return
		}
		writeJSON(w, recommendResponse{User: model.UserID(user), T: model.TimeStep(t), Items: recs})
	})
	mux.HandleFunc("POST /v1/recommend/batch", func(w http.ResponseWriter, r *http.Request) {
		var req batchRequest
		if code, err := serve.DecodeRequest(w, r, &req); err != nil {
			httpError(w, code, "bad batch request: "+err.Error())
			return
		}
		if err := serve.CheckBatch(len(req.Users)); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		ctx, sp := traceContext(c.tracer, w, r, "http.recommend-batch")
		results, err := c.RecommendBatchCtx(ctx, req.Users, req.T)
		sp.End()
		if err != nil {
			httpError(w, serve.ErrorStatus(err), err.Error())
			return
		}
		resp := batchResponse{T: req.T, Results: make([]recommendResponse, len(req.Users))}
		for i, u := range req.Users {
			resp.Results[i] = recommendResponse{User: u, T: req.T, Items: results[i]}
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("POST /v1/adopt", func(w http.ResponseWriter, r *http.Request) {
		var ev serve.Event
		if code, err := serve.DecodeRequest(w, r, &ev); err != nil {
			httpError(w, code, "bad adoption event: "+err.Error())
			return
		}
		ctx, sp := traceContext(c.tracer, w, r, "http.adopt")
		err := c.FeedCtx(ctx, ev)
		sp.End()
		if err != nil {
			httpError(w, serve.ErrorStatus(err), err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		writeJSON(w, map[string]bool{"queued": true})
	})
	mux.HandleFunc("POST /v1/advance", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Now model.TimeStep `json:"now"`
		}
		if code, err := serve.DecodeRequest(w, r, &req); err != nil {
			httpError(w, code, "bad advance request: "+err.Error())
			return
		}
		ctx, sp := traceContext(c.tracer, w, r, "http.advance")
		err := c.SetNowCtx(ctx, req.Now)
		sp.End()
		if err != nil {
			httpError(w, serve.ErrorStatus(err), err.Error())
			return
		}
		writeJSON(w, map[string]int{"now": int(c.Now())})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		samples := c.StatsSamples()
		per := make([]serve.Stats, len(samples))
		for k, s := range samples {
			per[k] = s.Stats
		}
		writeJSON(w, statsResponse{Stats: c.Stats(), Cluster: c.CoordinatorStats(), PerShard: per})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = c.WriteMetrics(w)
	})
	mux.HandleFunc("GET /debug/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = c.WriteTraces(w)
	})
	return mux
}

type recommendResponse struct {
	User  model.UserID           `json:"user"`
	T     model.TimeStep         `json:"t"`
	Items []serve.Recommendation `json:"items"`
}

type batchRequest struct {
	Users []model.UserID `json:"users"`
	T     model.TimeStep `json:"t"`
}

type batchResponse struct {
	T       model.TimeStep      `json:"t"`
	Results []recommendResponse `json:"results"`
}

func writeJSON(w http.ResponseWriter, v any) {
	if w.Header().Get("Content-Type") == "" {
		w.Header().Set("Content-Type", "application/json")
	}
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
