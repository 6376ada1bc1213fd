package cluster

import (
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/model"
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
	var rec struct {
		User model.UserID `json:"user"`
	}
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
	var batch struct {
		Results []struct {
			User model.UserID `json:"user"`
		} `json:"results"`
	}
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
