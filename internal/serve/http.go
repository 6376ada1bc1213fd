package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/model"
	"repro/internal/obs"
)

// traceContext reads the request's X-Trace-Id header (16 hex digits, as
// rendered in /debug/traces and log records) and, when present and
// valid, opens a root span on tr continuing that trace and returns a
// context carrying it, echoing the normalized ID back on the response.
// Requests without the header — the overwhelming majority — pay one
// header lookup and keep the engine's head-sampling policy.
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

// Handler returns the HTTP/JSON API over e:
//
//	GET  /healthz                  liveness + SLO verdicts (JSON)
//	GET  /v1/recommend?user=U&t=T  one user's recommendations at T
//	POST /v1/recommend/batch       {"users":[...],"t":T}
//	POST /v1/adopt                 {"user":U,"item":I,"t":T,"adopted":B}
//	POST /v1/advance               {"now":T} — move the serving clock
//	GET  /v1/stats                 engine summary (JSON)
//	GET  /metrics                  Prometheus text exposition
//	GET  /debug/traces             recent traces (JSON)
//
// Request endpoints honor an X-Trace-Id header (16 hex digits): the
// request is traced unconditionally under that trace ID, correlating
// the /debug/traces timeline and log records with the caller's trace.
//
// Handler is stateless glue; all synchronization lives in the Engine,
// so the handler is safe under any number of server goroutines.
func Handler(e *Engine) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, engineHealth(e))
	})
	mux.HandleFunc("GET /v1/recommend", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		user, err1 := strconv.Atoi(q.Get("user"))
		t, err2 := strconv.Atoi(q.Get("t"))
		if err1 != nil || err2 != nil {
			httpError(w, http.StatusBadRequest, "user and t must be integers")
			return
		}
		ctx, sp := traceContext(e.Tracer(), w, r, "http.recommend")
		recs, err := e.RecommendCtx(ctx, model.UserID(user), model.TimeStep(t))
		sp.End()
		if err != nil {
			httpError(w, ErrorStatus(err), err.Error())
			return
		}
		writeJSON(w, recommendResponse{User: model.UserID(user), T: model.TimeStep(t), Items: recs})
	})
	mux.HandleFunc("POST /v1/recommend/batch", func(w http.ResponseWriter, r *http.Request) {
		var req batchRequest
		if code, err := DecodeRequest(w, r, &req); err != nil {
			httpError(w, code, "bad batch request: "+err.Error())
			return
		}
		if err := CheckBatch(len(req.Users)); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		ctx, sp := traceContext(e.Tracer(), w, r, "http.recommend-batch")
		results, err := e.RecommendBatchCtx(ctx, req.Users, req.T)
		sp.End()
		if err != nil {
			httpError(w, ErrorStatus(err), err.Error())
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
		if code, err := DecodeRequest(w, r, &ev); err != nil {
			httpError(w, code, "bad adoption event: "+err.Error())
			return
		}
		ctx, sp := traceContext(e.Tracer(), w, r, "http.adopt")
		err := e.FeedCtx(ctx, ev)
		sp.End()
		if err != nil {
			httpError(w, ErrorStatus(err), err.Error())
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
		if code, err := DecodeRequest(w, r, &req); err != nil {
			httpError(w, code, "bad advance request: "+err.Error())
			return
		}
		ctx, sp := traceContext(e.Tracer(), w, r, "http.advance")
		err := e.SetNowCtx(ctx, req.Now)
		sp.End()
		if err != nil {
			httpError(w, ErrorStatus(err), err.Error())
			return
		}
		writeJSON(w, map[string]int{"now": int(e.Now())})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, e.Stats())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		e.writeMetrics(w)
	})
	mux.HandleFunc("GET /debug/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = e.Tracer().WriteJSON(w)
	})
	return mux
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

// ErrorStatus maps an error returned by an Engine (or a cluster of them)
// to the HTTP status its handler answers with: 503 for the lifecycle
// conditions ErrClosed and ErrKilled — the request was fine, the server
// cannot take it, retry elsewhere or later — and 400 for everything else,
// which is input validation.
func ErrorStatus(err error) int {
	if errors.Is(err, ErrClosed) || errors.Is(err, ErrKilled) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// Limits on /v1 requests, shared by the engine and cluster muxes.
const (
	// MaxRequestBytes bounds every /v1 request body; a larger one is
	// answered 413. A batch of MaxBatchUsers IDs needs well under it.
	MaxRequestBytes = 1 << 20
	// MaxBatchUsers bounds the users of one /v1/recommend/batch request; a
	// longer list is answered 400.
	MaxBatchUsers = 4096
)

// DecodeRequest decodes the JSON body of a /v1 request into v, reading at
// most MaxRequestBytes of it. On failure it also returns the status to
// answer with: 413 for an oversize body, 400 for a malformed one.
func DecodeRequest(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge, err
	}
	return http.StatusBadRequest, err
}

// CheckBatch rejects a /v1/recommend/batch request naming more than
// MaxBatchUsers users.
func CheckBatch(users int) error {
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
