package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/serve"
)

// barrierGroup finds the newest merged trace group containing a
// coordinator span named "barrier".
func barrierGroup(t *testing.T, cl *Cluster) TraceGroup {
	t.Helper()
	groups := cl.Traces()
	for i := len(groups) - 1; i >= 0; i-- {
		for _, s := range groups[i].Spans {
			if s.Shard == "coord" && s.Name == "barrier" {
				return groups[i]
			}
		}
	}
	t.Fatalf("no barrier trace in %d groups", len(groups))
	return TraceGroup{}
}

// TestClusterBarrierTraceCorrelation is the acceptance check for the
// correlated observability plane: after an adoption-driven barrier on a
// 3-shard cluster, the merged trace view must hold ONE group in which
// the coordinator's barrier span (with its gather→merge→solve→trim→
// slice phase children) and every shard's install span share a single
// trace ID. Shards never plan, so no shard replan span appears.
func TestClusterBarrierTraceCorrelation(t *testing.T) {
	in := testInstance(t, 24, 13)
	cl, err := New(in, Config{Shards: 3, ReplanEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Adopt something a shard actually recommends so the barrier has a
	// drawdown to reconcile and a replan to run.
	var ev *serve.Event
	for u := 0; u < in.NumUsers && ev == nil; u++ {
		recs, err := cl.Recommend(model.UserID(u), 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) > 0 {
			ev = &serve.Event{User: model.UserID(u), Item: recs[0].Item, T: 1, Adopted: true}
		}
	}
	if ev == nil {
		t.Fatal("plan recommends nothing at t=1")
	}
	if err := cl.Feed(*ev); err != nil {
		t.Fatal(err)
	}
	cl.Flush()

	g := barrierGroup(t, cl)
	if g.TraceID == "" {
		t.Fatal("barrier group has no trace id")
	}
	var barrier *TraceSpan
	installs := map[string]TraceSpan{}
	for i, s := range g.Spans {
		if s.TraceID != g.TraceID {
			t.Errorf("span %s/%s carries trace %s, group is %s", s.Shard, s.Name, s.TraceID, g.TraceID)
		}
		switch {
		case s.Shard == "coord" && s.Name == "barrier":
			barrier = &g.Spans[i]
		case s.Name == "install":
			installs[s.Shard] = s
		case s.Name == "replan":
			t.Errorf("shard %s replanned inside the barrier trace", s.Shard)
		}
	}
	if barrier == nil {
		t.Fatal("no coordinator barrier span in group")
	}
	// The coordinator span carries the whole phase breakdown.
	phases := map[string]bool{}
	for _, c := range barrier.Children {
		phases[c.Name] = true
	}
	for _, want := range []string{"drain", "reconcile", "gather", "merge", "solve", "slice", "install"} {
		if !phases[want] {
			t.Errorf("barrier span missing %q child (has %v)", want, barrier.Children)
		}
	}
	// Every shard joined the trace with a parented remote install span.
	for _, shard := range []string{"0", "1", "2"} {
		sp, ok := installs[shard]
		if !ok {
			t.Errorf("shard %s has no install span in the barrier trace", shard)
			continue
		}
		if sp.ParentID == "" {
			t.Errorf("shard %s install span has no remote parent", shard)
		}
		if sp.SpanID == barrier.SpanID {
			t.Errorf("shard %s install reused the coordinator's span id", shard)
		}
	}
	// Span IDs are unique across tracers (distinct origins).
	seen := map[string]string{}
	for _, s := range g.Spans {
		if prev, dup := seen[s.SpanID]; dup {
			t.Errorf("span id %s minted by both %s and %s", s.SpanID, prev, s.Shard)
		}
		seen[s.SpanID] = s.Shard
	}
}

// TestClusterIdleBarrierNotPublished: periodic no-op barriers (nothing
// replanned, nothing granted) must not reach the trace ring.
func TestClusterIdleBarrierNotPublished(t *testing.T) {
	in := testInstance(t, 12, 7)
	cl, err := New(in, Config{Shards: 2, ReplanEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	before := len(cl.Tracer().Traces())
	cl.Flush()
	cl.Flush()
	if after := len(cl.Tracer().Traces()); after != before {
		t.Fatalf("idle flushes published %d barrier traces", after-before)
	}
}

// TestClusterDebugTracesEndpoint: /debug/traces must be ONE valid JSON
// document (the old handler emitted N concatenated documents in a
// hand-rolled array) with shard-labeled spans grouped by trace ID.
func TestClusterDebugTracesEndpoint(t *testing.T) {
	cl := testCluster(t, 3)
	srv := httptest.NewServer(Handler(cl))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dump struct {
		Enabled bool         `json:"enabled"`
		Shards  int          `json:"shards"`
		Traces  []TraceGroup `json:"traces"`
	}
	dec := json.NewDecoder(resp.Body)
	if err := dec.Decode(&dump); err != nil {
		t.Fatalf("/debug/traces is not a single JSON document: %v", err)
	}
	if dec.More() {
		t.Fatal("/debug/traces holds trailing JSON documents")
	}
	if !dump.Enabled || dump.Shards != 3 {
		t.Fatalf("envelope = {enabled:%v shards:%d}", dump.Enabled, dump.Shards)
	}
	if len(dump.Traces) == 0 {
		t.Fatal("no traces after a full trajectory")
	}
	labels := map[string]bool{}
	for _, g := range dump.Traces {
		if g.TraceID == "" {
			t.Error("trace group without trace id")
		}
		for _, s := range g.Spans {
			labels[s.Shard] = true
		}
	}
	for _, want := range []string{"coord", "0", "1", "2"} {
		if !labels[want] {
			t.Errorf("no span labeled shard=%s in /debug/traces", want)
		}
	}
}

// TestClusterAdvanceTraceHeader: an /v1/advance carrying X-Trace-Id
// must put the HTTP span, the coordinated barrier, and every shard's
// install under the caller's trace ID.
func TestClusterAdvanceTraceHeader(t *testing.T) {
	in := testInstance(t, 24, 13)
	cl, err := New(in, Config{Shards: 3, ReplanEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	srv := httptest.NewServer(Handler(cl))
	defer srv.Close()

	const traceID = "00000000000000cd"
	req, err := http.NewRequest("POST", srv.URL+"/v1/advance", strings.NewReader(`{"now":2}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Trace-Id", traceID)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("advance: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != traceID {
		t.Fatalf("echoed trace id %q, want %q", got, traceID)
	}

	var group *TraceGroup
	for _, g := range cl.Traces() {
		if g.TraceID == traceID {
			group = &g
			break
		}
	}
	if group == nil {
		t.Fatalf("trace %s not in merged view", traceID)
	}
	names := map[string]bool{}
	shards := map[string]bool{}
	for _, s := range group.Spans {
		names[s.Shard+"/"+s.Name] = true
		if s.Name == "install" {
			shards[s.Shard] = true
		}
	}
	for _, want := range []string{"coord/http.advance", "coord/barrier"} {
		if !names[want] {
			t.Errorf("trace %s missing span %s (has %v)", traceID, want, names)
		}
	}
	for _, k := range []string{"0", "1", "2"} {
		if !shards[k] {
			t.Errorf("shard %s install did not join trace %s", k, traceID)
		}
	}
}

// TestClusterHealthzAndSLOMetrics covers the cluster watchdog surface:
// /healthz is JSON with the coordinator objectives, and the merged
// exposition round-trips both the coordinator's unlabeled slo series
// and the shards' shard-labeled ones through ParseExposition.
func TestClusterHealthzAndSLOMetrics(t *testing.T) {
	cl := testCluster(t, 2)
	srv := httptest.NewServer(Handler(cl))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Status string          `json:"status"`
		SLOs   []obs.SLOStatus `json:"slos"`
		Error  string          `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("healthz is not JSON: %v", err)
	}
	if h.Status != "ok" || h.Error != "" {
		t.Fatalf("healthz = %+v", h)
	}
	wantObjs := map[string]bool{
		"barrier_p99": false, "plan_staleness": false,
		"error_rate": false, "recommend_p99": false,
	}
	for _, s := range h.SLOs {
		if _, ok := wantObjs[s.Name]; ok {
			wantObjs[s.Name] = true
		}
	}
	for name, seen := range wantObjs {
		if !seen {
			t.Errorf("cluster objective %s missing from /healthz", name)
		}
	}

	var buf bytes.Buffer
	if err := cl.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(&buf)
	if err != nil {
		t.Fatalf("merged exposition with slo families fails conformance: %v", err)
	}
	for _, name := range []string{
		"revmaxd_slo_ok", "revmaxd_slo_value", "revmaxd_slo_threshold",
		"revmaxd_slo_breaches_total", "revmaxd_slo_evaluations_total",
		"revmaxd_cluster_barrier_seconds",
	} {
		if fams[name] == nil {
			t.Errorf("family %s missing from merged exposition", name)
		}
	}
	// revmaxd_slo_ok must carry the coordinator's unlabeled series AND
	// each shard's labeled ones.
	f := fams["revmaxd_slo_ok"]
	if f == nil {
		t.Fatal("revmaxd_slo_ok missing")
	}
	coordSLOs := map[string]bool{}
	shardSLOs := map[string]map[string]bool{}
	for _, s := range f.Samples {
		if shard, ok := s.Labels["shard"]; ok {
			if shardSLOs[shard] == nil {
				shardSLOs[shard] = map[string]bool{}
			}
			shardSLOs[shard][s.Labels["slo"]] = true
		} else {
			coordSLOs[s.Labels["slo"]] = true
		}
	}
	for _, want := range []string{"barrier_p99", "plan_staleness", "error_rate", "recommend_p99"} {
		if !coordSLOs[want] {
			t.Errorf("coordinator slo_ok series %s missing (have %v)", want, coordSLOs)
		}
	}
	for _, shard := range []string{"0", "1"} {
		for _, want := range []string{"recommend_p99", "error_rate", "plan_staleness", "replan_p99"} {
			if !shardSLOs[shard][want] {
				t.Errorf("shard %s slo_ok series %s missing (have %v)", shard, want, shardSLOs[shard])
			}
		}
	}

	// Degrade the cluster error-rate objective and watch /healthz flip
	// while staying HTTP 200 (liveness, not readiness).
	for i := 0; i < 10; i++ {
		if _, err := cl.Recommend(model.UserID(1e9), 1); err == nil {
			t.Fatal("expected routing error")
		}
	}
	// Routing errors are rejected before any shard sees them; breach a
	// shard-visible objective instead: unknown local time step errors
	// count on the owning shard's error counter.
	for i := 0; i < 64; i++ {
		_, _ = cl.Recommend(model.UserID(i%24), model.TimeStep(999))
	}
	cl.SLO().Evaluate()
	resp, err = srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded healthz status %d, want 200", resp.StatusCode)
	}
	if h.Status != "degraded" {
		t.Fatalf("healthz after error burst = %+v", h)
	}
}
