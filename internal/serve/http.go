package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/model"
	"repro/internal/obs"
)

// Backend is what Handler serves: the request surface a single Engine
// and a sharded cluster.Cluster share, plus one writer for each of the
// three bodies that differ between them.
type Backend interface {
	RecommendCtx(ctx context.Context, u model.UserID, t model.TimeStep) ([]Recommendation, error)
	RecommendBatchCtx(ctx context.Context, users []model.UserID, t model.TimeStep) ([][]Recommendation, error)
	FeedCtx(ctx context.Context, ev Event) error
	SetNowCtx(ctx context.Context, t model.TimeStep) error
	Now() model.TimeStep
	// Tracer opens the root spans of X-Trace-Id requests.
	Tracer() *obs.Tracer
	// SLO and Err are the /healthz verdict.
	SLO() *obs.SLOWatchdog
	Err() error
	// WriteStats writes the /v1/stats JSON body.
	WriteStats(w io.Writer) error
	// WriteMetrics writes the /metrics Prometheus text exposition.
	WriteMetrics(w io.Writer) error
	// WriteTraces writes the /debug/traces JSON document.
	WriteTraces(w io.Writer) error
}

// traceContext reads the request's X-Trace-Id header (16 hex digits, as
// rendered in /debug/traces and log records) and, when present and
// valid, opens a root span on tr continuing that trace and returns a
// context carrying it, echoing the normalized ID back on the response.
// Requests without the header — the overwhelming majority — pay one
// header lookup and keep the backend's head-sampling policy.
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

// Handler returns the HTTP/JSON API over b — an Engine or a sharded
// cluster; it is the one mux both serve:
//
//	GET  /healthz                  liveness + SLO verdicts (JSON)
//	GET  /v1/recommend?user=U&t=T  one user's recommendations at T
//	POST /v1/recommend/batch       {"users":[...],"t":T}
//	POST /v1/adopt                 {"user":U,"item":I,"t":T,"adopted":B} — 202 means
//	                               validated and enqueued; durable after a Flush or Sync
//	POST /v1/advance               {"now":T} — move the serving clock
//	GET  /v1/stats                 summary (JSON), from b.WriteStats
//	GET  /metrics                  Prometheus text, from b.WriteMetrics
//	GET  /debug/traces             recent traces (JSON), from b.WriteTraces
//
// Request endpoints honor an X-Trace-Id header (16 hex digits): the
// request is traced unconditionally under that trace ID, correlating
// the /debug/traces timeline and log records with the caller's trace.
//
// Handler is stateless glue; all synchronization lives in the backend,
// so the handler is safe under any number of server goroutines.
func Handler(b Backend) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, health(b))
	})
	mux.HandleFunc("GET /v1/recommend", func(w http.ResponseWriter, r *http.Request) {
		// model.UserID and model.TimeStep are int32: a wider value is
		// out of range, not wrapped onto another user or step.
		q := r.URL.Query()
		user, err1 := strconv.ParseInt(q.Get("user"), 10, 32)
		t, err2 := strconv.ParseInt(q.Get("t"), 10, 32)
		if err1 != nil || err2 != nil {
			httpError(w, http.StatusBadRequest, "user and t must be integers")
			return
		}
		ctx, sp := traceContext(b.Tracer(), w, r, "http.recommend")
		recs, err := b.RecommendCtx(ctx, model.UserID(user), model.TimeStep(t))
		sp.End()
		if err != nil {
			httpError(w, errorStatus(err), err.Error())
			return
		}
		writeJSON(w, recommendResponse{User: model.UserID(user), T: model.TimeStep(t), Items: recs})
	})
	mux.HandleFunc("POST /v1/recommend/batch", func(w http.ResponseWriter, r *http.Request) {
		var req batchRequest
		if code, err := decodeRequest(w, r, &req); err != nil {
			httpError(w, code, "bad batch request: "+err.Error())
			return
		}
		if err := checkBatch(len(req.Users)); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		ctx, sp := traceContext(b.Tracer(), w, r, "http.recommend-batch")
		results, err := b.RecommendBatchCtx(ctx, req.Users, req.T)
		sp.End()
		if err != nil {
			httpError(w, errorStatus(err), err.Error())
			return
		}
		resp := batchResponse{T: req.T, Results: make([]recommendResponse, len(req.Users))}
		for i, u := range req.Users {
			resp.Results[i] = recommendResponse{User: u, T: req.T, Items: results[i]}
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("POST /v1/adopt", func(w http.ResponseWriter, r *http.Request) {
		var ev Event
		if code, err := decodeRequest(w, r, &ev); err != nil {
			httpError(w, code, "bad adoption event: "+err.Error())
			return
		}
		ctx, sp := traceContext(b.Tracer(), w, r, "http.adopt")
		err := b.FeedCtx(ctx, ev)
		sp.End()
		if err != nil {
			httpError(w, errorStatus(err), err.Error())
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
		if code, err := decodeRequest(w, r, &req); err != nil {
			httpError(w, code, "bad advance request: "+err.Error())
			return
		}
		ctx, sp := traceContext(b.Tracer(), w, r, "http.advance")
		err := b.SetNowCtx(ctx, req.Now)
		sp.End()
		if err != nil {
			httpError(w, errorStatus(err), err.Error())
			return
		}
		writeJSON(w, map[string]int{"now": int(b.Now())})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = b.WriteStats(w)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = b.WriteMetrics(w)
	})
	mux.HandleFunc("GET /debug/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = b.WriteTraces(w)
	})
	return mux
}

// WriteStats writes Stats as the /v1/stats JSON body.
func (e *Engine) WriteStats(w io.Writer) error {
	return json.NewEncoder(w).Encode(e.Stats())
}

// WriteTraces writes the tracer's ring as the /debug/traces JSON
// document.
func (e *Engine) WriteTraces(w io.Writer) error {
	return e.Tracer().WriteJSON(w)
}

type recommendResponse struct {
	User  model.UserID     `json:"user"`
	T     model.TimeStep   `json:"t"`
	Items []Recommendation `json:"items"`
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

// errorStatus maps an error returned by a Backend to the HTTP status its
// handler answers with: 503 for the lifecycle conditions ErrClosed and
// ErrKilled — the request was fine, the server cannot take it, retry
// elsewhere or later — and 400 for everything else, which is input
// validation.
func errorStatus(err error) int {
	if errors.Is(err, ErrClosed) || errors.Is(err, ErrKilled) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// Limits on /v1 requests.
const (
	// MaxRequestBytes bounds every /v1 request body; a larger one is
	// answered 413. A batch of MaxBatchUsers IDs needs well under it.
	MaxRequestBytes = 1 << 20
	// MaxBatchUsers bounds the users of one /v1/recommend/batch request; a
	// longer list is answered 400.
	MaxBatchUsers = 4096
)

// decodeRequest decodes the JSON body of a /v1 request into v, reading at
// most MaxRequestBytes of it. The body must hold exactly one JSON value:
// anything but whitespace after it is rejected. On failure it also
// returns the status to answer with: 413 for an oversize body, 400 for a
// malformed one.
func decodeRequest(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return http.StatusOK, nil
		}
		if !errors.As(err, new(*http.MaxBytesError)) {
			err = errors.New("trailing data after the JSON value")
		}
	}
	if errors.As(err, new(*http.MaxBytesError)) {
		return http.StatusRequestEntityTooLarge, err
	}
	return http.StatusBadRequest, err
}

// checkBatch rejects a /v1/recommend/batch request naming more than
// MaxBatchUsers users.
func checkBatch(users int) error {
	if users > MaxBatchUsers {
		return fmt.Errorf("batch of %d users exceeds the limit of %d", users, MaxBatchUsers)
	}
	return nil
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
