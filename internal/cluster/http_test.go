package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/serve"
)

func testCluster(t *testing.T, shards int) *Cluster {
	t.Helper()
	in := testInstance(t, 24, 13)
	cl, err := New(in, Config{Shards: shards, ReplanEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	// Put some traffic through so every family has live samples.
	runTrajectory(t, in, cl, 31)
	return cl
}

// TestMergedMetricsConformance scrapes the merged /metrics endpoint
// and re-parses it with the obs conformance checker: families must be
// contiguous, series unique, histograms cumulative — after the shard
// label injection and re-render.
func TestMergedMetricsConformance(t *testing.T) {
	cl := testCluster(t, 3)
	srv := httptest.NewServer(Handler(cl))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fams, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("merged exposition fails conformance: %v", err)
	}

	// Coordinator families present, unlabeled.
	for _, name := range []string{
		"revmaxd_cluster_reconcile_rounds_total",
		"revmaxd_cluster_regrants_total",
		"revmaxd_cluster_quota_denials_total",
		"revmaxd_cluster_outstanding_reservations",
		"revmaxd_cluster_stock_remaining",
		"revmaxd_cluster_replans_total",
	} {
		f := fams[name]
		if f == nil {
			t.Errorf("coordinator family %s missing", name)
			continue
		}
		for _, s := range f.Samples {
			if _, ok := s.Labels["shard"]; ok {
				t.Errorf("coordinator sample %s carries a shard label", name)
			}
		}
	}

	// Per-shard serving families carry shard labels covering every shard.
	f := fams["revmaxd_recommend_total"]
	if f == nil {
		t.Fatal("revmaxd_recommend_total missing from merged exposition")
	}
	seen := make(map[string]bool)
	for _, s := range f.Samples {
		seen[s.Labels["shard"]] = true
	}
	for _, want := range []string{"0", "1", "2"} {
		if !seen[want] {
			t.Errorf("no revmaxd_recommend_total sample for shard %s", want)
		}
	}

	// Histograms survive the merge per shard.
	if f := fams["revmaxd_latency_seconds"]; f == nil {
		t.Error("latency histogram missing from merged exposition")
	}
}

// TestStatsEndpoint checks the /v1/stats shape: merged fields inlined
// at the top level (single-engine-compatible), coordinator summary
// under "cluster", raw per-shard stats under "per_shard".
func TestStatsEndpoint(t *testing.T) {
	cl := testCluster(t, 3)
	srv := httptest.NewServer(Handler(cl))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		serve.Stats
		Cluster  CoordinatorStats `json:"cluster"`
		PerShard []serve.Stats    `json:"per_shard"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Users != 24 {
		t.Errorf("merged users %d, want 24", got.Users)
	}
	if len(got.PerShard) != 3 {
		t.Fatalf("per_shard has %d entries, want 3", len(got.PerShard))
	}
	var sumAdoptions int64
	var sumUsers int
	for _, s := range got.PerShard {
		sumAdoptions += s.Adoptions
		sumUsers += s.Users
	}
	if got.Adoptions != sumAdoptions {
		t.Errorf("merged adoptions %d != per-shard sum %d", got.Adoptions, sumAdoptions)
	}
	if sumUsers != 24 {
		t.Errorf("per-shard users sum to %d, want 24", sumUsers)
	}
	if got.Cluster.Shards != 3 {
		t.Errorf("cluster.shards = %d, want 3", got.Cluster.Shards)
	}
	if got.Cluster.ReconcileRounds == 0 {
		t.Error("cluster.reconcile_rounds is zero after a full trajectory")
	}
}

// TestHTTPRoundTrip drives the serving endpoints end to end through
// the router: recommend, batch, adopt, advance.
func TestHTTPRoundTrip(t *testing.T) {
	cl := testCluster(t, 2)
	srv := httptest.NewServer(Handler(cl))
	defer srv.Close()
	client := srv.Client()

	now := int(cl.Now())
	resp, err := client.Get(srv.URL + "/v1/recommend?user=1&t=" + itoa(now))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("recommend status %d", resp.StatusCode)
	}
	var rec recommendResponse
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rec.User != 1 {
		t.Errorf("routed response for user %d, want 1", rec.User)
	}

	resp, err = client.Post(srv.URL+"/v1/recommend/batch", "application/json",
		strings.NewReader(`{"users":[0,1,2,3],"t":`+itoa(now)+`}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var batch batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(batch.Results) != 4 {
		t.Fatalf("batch returned %d results, want 4", len(batch.Results))
	}
	for i, r := range batch.Results {
		if int(r.User) != i {
			t.Errorf("batch result %d is for user %d (input order lost)", i, r.User)
		}
	}

	resp, err = client.Post(srv.URL+"/v1/adopt", "application/json",
		strings.NewReader(`{"user":2,"item":0,"t":`+itoa(now)+`,"adopted":false}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 202 {
		t.Errorf("adopt status %d, want 202", resp.StatusCode)
	}

	resp, err = client.Get(srv.URL + "/v1/recommend?user=999&t=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("unknown user status %d, want 400", resp.StatusCode)
	}
}

func itoa(n int) string { return strconv.Itoa(n) }

// TestHTTPClosedClusterStatus is serve's TestHTTPClosedEngineStatus
// through the router: a shard engine's ErrClosed surfaces as 503, reads
// and the clock still answer 200, a malformed request is still a 400.
func TestHTTPClosedClusterStatus(t *testing.T) {
	cl := testCluster(t, 2)
	srv := httptest.NewServer(Handler(cl))
	defer srv.Close()
	now := itoa(int(cl.Now()))
	cl.Close()
	for _, tc := range []struct {
		name, method, path, body string
		want                     int
	}{
		{"recommend", "GET", "/v1/recommend?user=1&t=" + now, "", 200},
		{"batch", "POST", "/v1/recommend/batch", `{"users":[0,1,2,3],"t":` + now + `}`, 200},
		{"adopt", "POST", "/v1/adopt", `{"user":2,"item":0,"t":` + now + `,"adopted":true}`, 503},
		{"advance", "POST", "/v1/advance", `{"now":` + now + `}`, 200},
		{"adopt-bad-user", "POST", "/v1/adopt", `{"user":999,"item":0,"t":` + now + `}`, 400},
	} {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var msg map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&msg) // 2xx bodies are not this shape
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s on a closed cluster: %d %v, want %d", tc.name, resp.StatusCode, msg, tc.want)
		}
		if tc.want == 503 && !strings.Contains(msg["error"], serve.ErrClosed.Error()) {
			t.Errorf("%s: error body %v, want it to mention %q", tc.name, msg, serve.ErrClosed)
		}
	}
}

// TestHTTPClusterRequestLimits is serve's TestHTTPRequestLimits through
// the router: the same serve.MaxRequestBytes and serve.MaxBatchUsers.
func TestHTTPClusterRequestLimits(t *testing.T) {
	cl := testCluster(t, 2)
	srv := httptest.NewServer(Handler(cl))
	defer srv.Close()
	now := itoa(int(cl.Now()))
	pad := strings.Repeat(" ", serve.MaxRequestBytes)
	users := func(n int) string { return strings.TrimSuffix(strings.Repeat("1,", n), ",") }
	for _, tc := range []struct {
		name, path, body string
		want             int
	}{
		{"oversize batch", "/v1/recommend/batch", `{"users":[1],` + pad + `"t":` + now + `}`, 413},
		{"oversize adopt", "/v1/adopt", `{"user":1,"item":0,"t":` + now + `,` + pad + `"adopted":false}`, 413},
		{"oversize advance", "/v1/advance", pad + `{"now":` + now + `}`, 413},
		{"too many users", "/v1/recommend/batch", `{"users":[` + users(serve.MaxBatchUsers+1) + `],"t":` + now + `}`, 400},
		{"users at the limit", "/v1/recommend/batch", `{"users":[` + users(serve.MaxBatchUsers) + `],"t":` + now + `}`, 200},
	} {
		resp, err := srv.Client().Post(srv.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: %d %.200s, want %d", tc.name, resp.StatusCode, body, tc.want)
		}
	}
}
