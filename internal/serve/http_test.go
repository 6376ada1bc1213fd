package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/model"
)

func newTestServer(t *testing.T) (*Engine, *httptest.Server) {
	t.Helper()
	in := testInstance(t, 80, 8, 3, 2, 20)
	e := newTestEngine(t, in, Config{ReplanEvery: 8})
	srv := httptest.NewServer(Handler(e))
	t.Cleanup(srv.Close)
	return e, srv
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

func post(t *testing.T, url string, payload any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

func TestHTTPHealthz(t *testing.T) {
	e, srv := newTestServer(t)
	code, body := get(t, srv.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d %q", code, body)
	}
	var h healthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("healthz is not JSON: %v\n%s", err, body)
	}
	if h.Status != "ok" || h.Error != "" {
		t.Fatalf("healthz = %+v", h)
	}
	if len(h.SLOs) != 4 {
		t.Fatalf("healthz lists %d SLOs, want 4: %s", len(h.SLOs), body)
	}
	for _, s := range h.SLOs {
		if !s.OK {
			t.Fatalf("objective %s degraded on a fresh engine: %+v", s.Name, s)
		}
	}

	// Degrade an objective (breach the error-rate window) and check the
	// section flips; liveness stays HTTP 200 either way.
	for i := 0; i < 10; i++ {
		if _, err := e.Recommend(model.UserID(1e9), 1); err == nil {
			t.Fatal("expected error")
		}
	}
	e.SLO().Evaluate()
	code, body = get(t, srv.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("degraded healthz: %d", code)
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" {
		t.Fatalf("healthz after breach = %s", body)
	}
}

func TestHTTPRecommend(t *testing.T) {
	e, srv := newTestServer(t)
	code, body := get(t, srv.URL+"/v1/recommend?user=3&t=1")
	if code != http.StatusOK {
		t.Fatalf("recommend: %d %s", code, body)
	}
	var resp recommendResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	want, err := e.Recommend(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	wj, _ := json.Marshal(want)
	gj, _ := json.Marshal(resp.Items)
	if !bytes.Equal(wj, gj) {
		t.Fatalf("http items %s != engine items %s", gj, wj)
	}

	for _, bad := range []string{
		"/v1/recommend",                 // missing params
		"/v1/recommend?user=x&t=1",      // non-integer
		"/v1/recommend?user=1&t=999",    // t out of range
		"/v1/recommend?user=-5&t=1",     // user out of range
		"/v1/recommend?user=100000&t=1", // user out of range
	} {
		if code, _ := get(t, srv.URL+bad); code != http.StatusBadRequest {
			t.Fatalf("%s: got %d, want 400", bad, code)
		}
	}
}

func TestHTTPBatchAdoptStatsMetrics(t *testing.T) {
	e, srv := newTestServer(t)

	code, body := post(t, srv.URL+"/v1/recommend/batch", batchRequest{Users: []model.UserID{0, 1, 2, 3}, T: 1})
	if code != http.StatusOK {
		t.Fatalf("batch: %d %s", code, body)
	}
	var bresp batchResponse
	if err := json.Unmarshal(body, &bresp); err != nil {
		t.Fatal(err)
	}
	if len(bresp.Results) != 4 {
		t.Fatalf("batch returned %d results, want 4", len(bresp.Results))
	}

	// Find a served recommendation and adopt it over HTTP.
	var ev *Event
	for _, r := range bresp.Results {
		if len(r.Items) > 0 {
			ev = &Event{User: r.User, Item: r.Items[0].Item, T: 1, Adopted: true}
			break
		}
	}
	if ev == nil {
		t.Fatal("no recommendations in batch response")
	}
	code, body = post(t, srv.URL+"/v1/adopt", ev)
	if code != http.StatusAccepted {
		t.Fatalf("adopt: %d %s", code, body)
	}
	e.Flush()
	if got := e.Stats().Adoptions; got != 1 {
		t.Fatalf("adoptions = %d, want 1", got)
	}
	// The adopted class must now serve prob 0 for that user.
	code, body = get(t, srv.URL+"/v1/recommend?user="+itoa(int(ev.User))+"&t=1")
	if code != http.StatusOK {
		t.Fatalf("recommend after adopt: %d", code)
	}
	var after recommendResponse
	if err := json.Unmarshal(body, &after); err != nil {
		t.Fatal(err)
	}
	class := e.Instance().Class(ev.Item)
	for _, rec := range after.Items {
		if e.Instance().Class(rec.Item) == class && rec.Prob != 0 {
			t.Fatalf("adopted class still live over HTTP: %+v", rec)
		}
	}

	if code, body := post(t, srv.URL+"/v1/adopt", map[string]any{"user": -1, "item": 0, "t": 1}); code != http.StatusBadRequest {
		t.Fatalf("bad adopt: %d %s", code, body)
	}

	code, body = post(t, srv.URL+"/v1/advance", map[string]int{"now": 2})
	if code != http.StatusOK {
		t.Fatalf("advance: %d %s", code, body)
	}
	if e.Now() != 2 {
		t.Fatalf("clock = %d, want 2", e.Now())
	}
	if code, _ := post(t, srv.URL+"/v1/advance", map[string]int{"now": 1}); code != http.StatusBadRequest {
		t.Fatal("backwards advance accepted over HTTP")
	}

	code, body = get(t, srv.URL+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Now != 2 || st.Adoptions != 1 {
		t.Fatalf("stats: %+v", st)
	}

	code, body = get(t, srv.URL+"/metrics")
	if code != http.StatusOK || !bytes.Contains(body, []byte("revmaxd_recommend_total")) {
		t.Fatalf("metrics: %d %s", code, body)
	}
}

func itoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

// TestHTTPTraceHeader drives requests carrying X-Trace-Id and checks
// they are traced unconditionally under the caller's trace ID — the
// recommend as a child span, the advance-triggered replan as a remote
// span joining the same trace — and that the ID is echoed back.
func TestHTTPTraceHeader(t *testing.T) {
	e, srv := newTestServer(t)
	const traceID = "00000000000000ab"

	do := func(method, path string, payload any) *http.Response {
		t.Helper()
		var body io.Reader
		if payload != nil {
			b, _ := json.Marshal(payload)
			body = bytes.NewReader(b)
		}
		req, err := http.NewRequest(method, srv.URL+path, body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Trace-Id", traceID)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: %d", method, path, resp.StatusCode)
		}
		return resp
	}

	resp := do("GET", "/v1/recommend?user=3&t=1", nil)
	if got := resp.Header.Get("X-Trace-Id"); got != traceID {
		t.Fatalf("echoed trace id = %q, want %q", got, traceID)
	}
	do("POST", "/v1/advance", map[string]int{"now": 2})
	e.Flush() // wait for the advance-forced replan to land in the ring

	var httpSpan, replan bool
	for _, d := range e.Tracer().Traces() {
		if d.TraceID != traceID {
			continue
		}
		switch d.Name {
		case "http.recommend":
			if len(d.Children) != 1 || d.Children[0].Name != "recommend" {
				t.Fatalf("http.recommend children = %+v", d.Children)
			}
			httpSpan = true
		case "replan":
			if d.ParentID == "" {
				t.Fatal("replan joined the trace without a remote parent")
			}
			replan = true
		}
	}
	if !httpSpan || !replan {
		t.Fatalf("trace %s incomplete: httpSpan=%v replan=%v\n%+v",
			traceID, httpSpan, replan, e.Tracer().Traces())
	}

	// A malformed header is ignored, not an error.
	req, _ := http.NewRequest("GET", srv.URL+"/v1/recommend?user=3&t=1", nil)
	req.Header.Set("X-Trace-Id", "not-hex")
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK || r2.Header.Get("X-Trace-Id") != "" {
		t.Fatalf("malformed trace header: %d %q", r2.StatusCode, r2.Header.Get("X-Trace-Id"))
	}
}
