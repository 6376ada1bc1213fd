package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
)

// TestDebugHandler drives the -debug-addr mux over each backend the API
// mux serves — a single engine and a 2-shard cluster: pprof index, the
// exposition-conformant /metrics mirror, and a /debug/traces payload
// holding the boot plan (the engine's plan trace, the shards' install
// spans).
func TestDebugHandler(t *testing.T) {
	for _, tc := range []struct {
		name     string
		open     func() (serving, error)
		bootSpan string
	}{
		{"engine", func() (serving, error) { return serve.NewEngine(daemonInstance(t), serve.Config{}) }, "plan"},
		{"cluster", func() (serving, error) { return cluster.New(daemonInstance(t), cluster.Config{Shards: 2}) }, "install"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc, err := tc.open()
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			srv := httptest.NewServer(debugHandler(serve.Handler(svc)))
			defer srv.Close()
			checkDebugHandler(t, srv, tc.bootSpan)
		})
	}
}

func checkDebugHandler(t *testing.T, srv *httptest.Server, bootSpan string) {
	t.Helper()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: code %d, body %.120q", code, body)
	}
	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics code %d", code)
	}
	if _, err := obs.ParseExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("/metrics fails conformance: %v", err)
	}
	for _, want := range []string{"revmaxd_solve_seconds", "revmaxd_plan_revision", "revmaxd_uptime_seconds"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %s:\n%s", want, body)
		}
	}
	code, body = get("/debug/traces")
	if code != http.StatusOK {
		t.Fatalf("/debug/traces code %d", code)
	}
	// An engine lists root spans; a cluster lists trace groups of spans.
	var payload struct {
		Enabled bool `json:"enabled"`
		Traces  []struct {
			Name  string         `json:"name"`
			Spans []obs.SpanData `json:"spans"`
		} `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("/debug/traces is not JSON: %v\n%s", err, body)
	}
	if !payload.Enabled || len(payload.Traces) == 0 {
		t.Fatalf("expected an enabled tracer with the boot plan trace, got %+v", payload)
	}
	found := false
	for _, tr := range payload.Traces {
		found = found || tr.Name == bootSpan
		for _, sp := range tr.Spans {
			found = found || sp.Name == bootSpan
		}
	}
	if !found {
		t.Fatalf("no %s span in payload: %s", bootSpan, body)
	}
}
