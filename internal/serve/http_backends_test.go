package serve_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/testgen"
)

// backendInstance is the instance every backend-axis HTTP test serves.
func backendInstance() *model.Instance {
	return testgen.Random(dist.NewRNG(7), testgen.Params{
		Users: 24, Items: 8, Classes: 4, T: 5, K: 2,
		MaxCap: 4, CandProb: 0.5, MinPrice: 1, MaxPrice: 100,
	})
}

// backend is one input of the backend axis: a Backend Handler serves,
// and its lifecycle.
type backend interface {
	serve.Backend
	Close()
}

// forEachBackend runs fn as a subtest against an in-memory engine and a
// 2-shard cluster, each on backendInstance and behind serve.Handler.
func forEachBackend(t *testing.T, fn func(t *testing.T, b backend, srv *httptest.Server)) {
	for _, tc := range []struct {
		name string
		open func() (backend, error)
	}{
		{"engine", func() (backend, error) { return serve.NewEngine(backendInstance(), serve.Config{ReplanEvery: 8}) }},
		{"cluster", func() (backend, error) {
			return cluster.New(backendInstance(), cluster.Config{Shards: 2, ReplanEvery: 8})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := tc.open()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(b.Close)
			srv := httptest.NewServer(serve.Handler(b))
			t.Cleanup(srv.Close)
			fn(t, b, srv)
		})
	}
}

// do sends one request and returns its status and body.
func do(t *testing.T, srv *httptest.Server, method, path, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

// TestHTTPClosedEngineStatus: a closed backend's refusal is the server's
// condition, not the client's mistake — 503, not 400; through the
// cluster router, a shard engine's ErrClosed surfaces the same way.
// Reads keep being answered from the last installed plan and the clock
// still stores, so those stay 200; a malformed request is still a 400,
// closed or not.
func TestHTTPClosedEngineStatus(t *testing.T) {
	for _, err := range []error{serve.ErrClosed, serve.ErrKilled, fmt.Errorf("shard 2: %w", serve.ErrClosed)} {
		if got := serve.ErrorStatus(err); got != http.StatusServiceUnavailable {
			t.Errorf("errorStatus(%v) = %d, want 503", err, got)
		}
	}
	if got := serve.ErrorStatus(errors.New("serve: unknown user 9")); got != http.StatusBadRequest {
		t.Errorf("errorStatus(validation error) = %d, want 400", got)
	}

	forEachBackend(t, func(t *testing.T, b backend, srv *httptest.Server) {
		b.Close()
		for _, tc := range []struct {
			name, method, path, body string
			want                     int
			wantErr                  string
		}{
			{"recommend", "GET", "/v1/recommend?user=3&t=1", "", 200, ""},
			{"batch", "POST", "/v1/recommend/batch", `{"users":[0,1,2,3],"t":1}`, 200, ""},
			{"adopt", "POST", "/v1/adopt", `{"user":3,"item":1,"t":1,"adopted":true}`, 503, serve.ErrClosed.Error()},
			{"advance", "POST", "/v1/advance", `{"now":1}`, 200, ""},
			{"adopt-bad-user", "POST", "/v1/adopt", `{"user":100000,"item":1,"t":1}`, 400, "100000"},
		} {
			code, body := do(t, srv, tc.method, tc.path, tc.body)
			if code != tc.want {
				t.Errorf("%s on a closed backend: %d %s, want %d", tc.name, code, body, tc.want)
			}
			if tc.wantErr != "" {
				var msg map[string]string
				if err := json.Unmarshal(body, &msg); err != nil || !strings.Contains(msg["error"], tc.wantErr) {
					t.Errorf("%s: error body %s, want it to mention %q", tc.name, body, tc.wantErr)
				}
			}
		}
	})
}

// TestHTTPRequestLimits: every /v1 body is read through MaxRequestBytes
// (413 beyond it) and holds one JSON value (400 for anything after it
// but whitespace), a batch names at most MaxBatchUsers users (400 beyond
// it), and query IDs are int32 (400 beyond, never wrapped); requests at
// the limits still succeed.
func TestHTTPRequestLimits(t *testing.T) {
	pad := strings.Repeat(" ", serve.MaxRequestBytes)
	users := func(n int) string { return strings.TrimSuffix(strings.Repeat("1,", n), ",") }
	forEachBackend(t, func(t *testing.T, b backend, srv *httptest.Server) {
		for _, tc := range []struct {
			name, method, path, body string
			want                     int
		}{
			{"oversize batch", "POST", "/v1/recommend/batch", `{"users":[1],` + pad + `"t":1}`, 413},
			{"oversize adopt", "POST", "/v1/adopt", `{"user":1,"item":0,"t":1,` + pad + `"adopted":false}`, 413},
			{"oversize advance", "POST", "/v1/advance", pad + `{"now":1}`, 413},
			{"too many users", "POST", "/v1/recommend/batch", `{"users":[` + users(serve.MaxBatchUsers+1) + `],"t":1}`, 400},
			{"users at the limit", "POST", "/v1/recommend/batch", `{"users":[` + users(serve.MaxBatchUsers) + `],"t":1}`, 200},
			{"two JSON values", "POST", "/v1/advance", `{"now":1}{"now":3}`, 400},
			{"trailing garbage", "POST", "/v1/advance", `{"now":1} garbage`, 400},
			{"trailing garbage adopt", "POST", "/v1/adopt", `{"user":1,"item":0,"t":1}]`, 400},
			{"trailing whitespace", "POST", "/v1/advance", "{\"now\":1}\n\t ", 200},
			{"oversize after the value", "POST", "/v1/advance", `{"now":1}` + pad, 413},
			{"user wraps int32", "GET", "/v1/recommend?user=4294967297&t=1", "", 400},
			{"negative user wraps int32", "GET", "/v1/recommend?user=-4294967295&t=1", "", 400},
			{"t wraps int32", "GET", "/v1/recommend?user=1&t=4294967297", "", 400},
			{"largest int32 user", "GET", "/v1/recommend?user=2147483647&t=1", "", 400},
		} {
			if code, body := do(t, srv, tc.method, tc.path, tc.body); code != tc.want {
				t.Errorf("%s: %d %.200s, want %d", tc.name, code, body, tc.want)
			}
		}
	})
}

// metricsSum scrapes /metrics and sums every sample of the named
// families (absent families count 0).
func metricsSum(t *testing.T, srv *httptest.Server, families ...string) float64 {
	t.Helper()
	code, body := do(t, srv, "GET", "/metrics", "")
	if code != 200 {
		t.Fatalf("metrics: %d %s", code, body)
	}
	fams, err := obs.ParseExposition(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, name := range families {
		if f := fams[name]; f != nil {
			for _, s := range f.Samples {
				sum += s.Value
			}
		}
	}
	return sum
}

// TestHTTPRejectionsCounted: a request rejected for an unknown user —
// on recommend, batch or adopt — counts in /v1/stats request_errors and
// breaches the error_rate objective on both backends, though the cluster
// router rejects it before any shard sees it.
func TestHTTPRejectionsCounted(t *testing.T) {
	requestErrors := func(t *testing.T, srv *httptest.Server) int64 {
		code, body := do(t, srv, "GET", "/v1/stats", "")
		var st struct {
			RequestErrors int64 `json:"request_errors"`
		}
		if err := json.Unmarshal(body, &st); code != 200 || err != nil {
			t.Fatalf("stats: %d %s (%v)", code, body, err)
		}
		return st.RequestErrors
	}
	forEachBackend(t, func(t *testing.T, b backend, srv *httptest.Server) {
		b.SLO().Evaluate()
		before := requestErrors(t, srv)
		for _, tc := range []struct{ method, path, body string }{
			{"GET", "/v1/recommend?user=999&t=1", ""},
			{"POST", "/v1/recommend/batch", `{"users":[0,999],"t":1}`},
			{"POST", "/v1/adopt", `{"user":999,"item":0,"t":1}`},
		} {
			if code, body := do(t, srv, tc.method, tc.path, tc.body); code != 400 {
				t.Fatalf("%s %s: %d %s, want 400", tc.method, tc.path, code, body)
			}
		}
		total := requestErrors(t, srv)
		if got := total - before; got != 3 {
			t.Errorf("request_errors grew by %d, want 3", got)
		}
		// /metrics accounts for every one of them: the request-error
		// series (per shard on a cluster) plus the cluster router's.
		if got := metricsSum(t, srv, "revmaxd_request_errors_total", "revmaxd_cluster_route_errors_total"); got != float64(total) {
			t.Errorf("/metrics request errors sum to %v, /v1/stats request_errors = %d", got, total)
		}
		b.SLO().Evaluate()
		var breaches int64 = -1
		for _, st := range b.SLO().Status() {
			if st.Name == "error_rate" {
				breaches = st.Breaches
			}
		}
		if breaches <= 0 {
			t.Errorf("error_rate objective breaches = %d, want ≥ 1 (-1: no such objective)", breaches)
		}
	})
}
