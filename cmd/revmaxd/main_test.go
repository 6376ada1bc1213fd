package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/testgen"
)

// TestHelpExitsZero: -h prints usage and returns flag.ErrHelp, which
// main maps to exit code 0 — the cmd/simulate fix, applied here.
func TestHelpExitsZero(t *testing.T) {
	for _, arg := range []string{"-h", "--help"} {
		var buf bytes.Buffer
		err := run([]string{arg}, &buf)
		if !errors.Is(err, flag.ErrHelp) {
			t.Fatalf("run(%s) = %v, want flag.ErrHelp", arg, err)
		}
		if !strings.Contains(buf.String(), "-algo") {
			t.Fatalf("usage output missing flags:\n%s", buf.String())
		}
	}
}

// TestUnknownAlgorithmFailsFast: a bad -algo fails before dataset
// generation or port binding.
func TestUnknownAlgorithmFailsFast(t *testing.T) {
	err := run([]string{"-algo", "definitely-not-real"}, &bytes.Buffer{})
	if err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if !strings.Contains(err.Error(), "g-greedy") {
		t.Fatalf("error does not list known algorithms: %v", err)
	}
}

// TestUnknownDatasetFails: the dataset registry rejects unknown names.
func TestUnknownDatasetFails(t *testing.T) {
	err := run([]string{"-dataset", "netflix"}, &bytes.Buffer{})
	if err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if !strings.Contains(err.Error(), "amazon") {
		t.Fatalf("error does not list known datasets: %v", err)
	}
}

// TestBadWALSyncPolicyFailsFast: a bad -wal-sync fails before dataset
// generation or port binding.
func TestBadWALSyncPolicyFailsFast(t *testing.T) {
	err := run([]string{"-data-dir", t.TempDir(), "-wal-sync", "sometimes"}, &bytes.Buffer{})
	if err == nil {
		t.Fatal("bad -wal-sync accepted")
	}
	if !strings.Contains(err.Error(), "always") {
		t.Fatalf("error does not list valid policies: %v", err)
	}
}

// TestIncrementalRequiresGGreedy: -incremental demands g-greedy (the
// persistent session replays its exact selection loop), and the check
// runs with the up-front flag checks — before a bad -dataset could fail
// dataset generation.
func TestIncrementalRequiresGGreedy(t *testing.T) {
	for _, dataset := range []string{"synthetic", "nosuch"} {
		err := run([]string{"-dataset", dataset, "-users", "40", "-algo", "rl-greedy", "-incremental"}, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "Incremental") {
			t.Fatalf("-dataset %s: -incremental with rl-greedy not rejected first: %v", dataset, err)
		}
	}
}

// TestSnapshotAndDataDirConflict: the legacy warm-restart file and the
// durable data dir cannot be combined.
func TestSnapshotAndDataDirConflict(t *testing.T) {
	err := run([]string{"-data-dir", t.TempDir(), "-snapshot", "x.snap"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("conflicting flags not rejected: %v", err)
	}
}

func daemonInstance(t *testing.T) *model.Instance {
	t.Helper()
	in := testgen.Random(dist.NewRNG(3), testgen.Params{
		Users: 40, Items: 8, Classes: 4, T: 5, K: 2,
		MaxCap: 5, CandProb: 0.4, MinPrice: 5, MaxPrice: 50,
	})
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	return in
}

// TestDrainAndStopPersistsUnflushedEvents is the graceful-shutdown
// drain contract: events accepted but never flushed by any client must
// still be applied, fsynced, and sealed into the final snapshot before
// the process exits — a restart must see every one of them.
func TestDrainAndStopPersistsUnflushedEvents(t *testing.T) {
	dir := t.TempDir()
	cfg := serve.Config{Durability: &serve.Durability{Dir: dir}}
	var out bytes.Buffer
	engine, err := bootEngine(cfg, "", "", "", 0, 0, 0, &out)
	if err == nil {
		t.Fatal("boot without state or instance source must fail")
	}
	engine, err = serve.Open(daemonInstance(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := engine.Instance()
	const n = 40
	for k := 0; k < n; k++ {
		ev := serve.Event{
			User:    model.UserID(k % in.NumUsers),
			Item:    model.ItemID(k % in.NumItems()),
			T:       1,
			Adopted: k%4 == 0,
		}
		if err := engine.Feed(ev); err != nil {
			t.Fatal(err)
		}
	}
	// No Flush, no Sync: drainAndStop owns making these durable.
	if err := drainAndStop(engine, "", &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "durable state sealed") {
		t.Fatalf("shutdown did not report sealing: %q", out.String())
	}

	restarted, err := bootEngine(cfg, "", "", "", 0, 0, 0, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	if !strings.Contains(out.String(), "recovered durable state") {
		t.Fatalf("restart did not recover: %q", out.String())
	}
	st := restarted.Stats()
	if st.Exposures != n {
		t.Fatalf("restart sees %d exposures, want %d — shutdown drain lost events", st.Exposures, n)
	}
	if st.Adoptions != n/4 {
		t.Fatalf("restart sees %d adoptions, want %d", st.Adoptions, n/4)
	}
}

// TestBootRecoversAfterKill: the kill-9 path end to end through the
// daemon's boot logic — crash without any shutdown handling, reboot,
// and serve the synced state.
func TestBootRecoversAfterKill(t *testing.T) {
	dir := t.TempDir()
	cfg := serve.Config{Durability: &serve.Durability{Dir: dir}}
	engine, err := serve.Open(daemonInstance(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := engine.Instance()
	for k := 0; k < 25; k++ {
		ev := serve.Event{User: model.UserID(k % in.NumUsers), Item: model.ItemID(k % in.NumItems()), T: 1, Adopted: true}
		if err := engine.Feed(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := engine.Sync(); err != nil {
		t.Fatal(err)
	}
	engine.Kill()

	var out bytes.Buffer
	restarted, err := bootEngine(cfg, "", "", "", 0, 0, 0, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	if got := restarted.Stats().Exposures; got != 25 {
		t.Fatalf("recovered %d exposures after kill, want 25", got)
	}
	if _, err := restarted.Recommend(0, restarted.Now()); err != nil {
		t.Fatal(err)
	}
}

// TestBadCutsFailFast: a malformed -cuts list fails before dataset
// generation or port binding, mirroring the revmax CLI.
func TestBadCutsFailFast(t *testing.T) {
	for _, bad := range []string{"0", "x", "2,,4", "-1"} {
		err := run([]string{"-cuts", bad}, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "-cuts") {
			t.Fatalf("-cuts %q not rejected: %v", bad, err)
		}
	}
}

// TestParseCuts pins the -cuts grammar shared with the revmax CLI.
func TestParseCuts(t *testing.T) {
	got, err := parseCuts(" 2, 4 ")
	if err != nil || len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("parseCuts(\" 2, 4 \") = %v, %v", got, err)
	}
	if got, err := parseCuts(""); err != nil || got != nil {
		t.Fatalf("parseCuts(\"\") = %v, %v; want nil, nil", got, err)
	}
}

// TestWorkersAndCutsFlagsDocumented: the daemon exposes the parallel
// and staged solver knobs like the batch CLI does.
func TestWorkersAndCutsFlagsDocumented(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-h"}, &buf); !errors.Is(err, flag.ErrHelp) {
		t.Fatal(err)
	}
	for _, flagName := range []string{"-workers", "-cuts"} {
		if !strings.Contains(buf.String(), flagName) {
			t.Fatalf("usage output missing %s:\n%s", flagName, buf.String())
		}
	}
}

// TestShardsFlagFailFast: an out-of-range -shards, the
// -shards/-snapshot conflict and the removed -stripes knob all fail
// before dataset generation or port binding.
func TestShardsFlagFailFast(t *testing.T) {
	for _, bad := range []string{"0", "-3"} {
		err := run([]string{"-shards", bad}, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "-shards") {
			t.Fatalf("-shards %s not rejected: %v", bad, err)
		}
	}
	err := run([]string{"-shards", "2", "-snapshot", "x.snap"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "single-engine") {
		t.Fatalf("-shards 2 with -snapshot not rejected: %v", err)
	}
	err = run([]string{"-stripes", "4"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "not defined: -stripes") {
		t.Fatalf("-stripes 4 not rejected as an unknown flag: %v", err)
	}
}

// TestBenchmarkFlagsDefined: the eleven flags bench/ boots the daemon
// with are all still defined — read off the -h text's "  -name" lines,
// not by substring, since flag descriptions mention other flags.
func TestBenchmarkFlagsDefined(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-h"}, &buf); !errors.Is(err, flag.ErrHelp) {
		t.Fatal(err)
	}
	defined := make(map[string]bool)
	for _, line := range strings.Split(buf.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok {
			defined[strings.Fields(name)[0]] = true
		}
	}
	for _, name := range []string{"dataset", "users", "seed", "addr", "replan-every", "data-dir",
		"wal-sync", "incremental", "warm-start", "shards", "flush-interval"} {
		if !defined[name] {
			t.Errorf("flag -%s is no longer defined:\n%s", name, buf.String())
		}
	}
}

// TestFlushIntervalFailFast: a negative -flush-interval fails before
// dataset generation or port binding; 0 (ticker disabled) is legal.
func TestFlushIntervalFailFast(t *testing.T) {
	err := run([]string{"-flush-interval", "-1s"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "-flush-interval") {
		t.Fatalf("negative -flush-interval not rejected: %v", err)
	}
}

// TestObservabilityFlagsFailFast: a bad -log-format or a negative
// -slow-ms fails before dataset generation or port binding.
func TestObservabilityFlagsFailFast(t *testing.T) {
	err := run([]string{"-log-format", "xml"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "log format") {
		t.Fatalf("-log-format xml not rejected: %v", err)
	}
	err = run([]string{"-slow-ms", "-5"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "-slow-ms") {
		t.Fatalf("negative -slow-ms not rejected: %v", err)
	}
}

// TestFlushTickerDrivesClusterBarrier: the daemon's periodic flush
// ticker alone — no /v1/advance, no ReplanEvery cadence, no explicit
// Flush — must carry a fed adoption through a coordinated barrier.
func TestFlushTickerDrivesClusterBarrier(t *testing.T) {
	cl, err := cluster.Open(daemonInstance(t), cluster.Config{Shards: 2, ReplanEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	stop := startFlushTicker(cl, 5*time.Millisecond)
	defer stop()
	in := cl.Instance()
	var fed bool
	for u := 0; u < in.NumUsers && !fed; u++ {
		for _, cand := range in.UserCandidates(model.UserID(u)) {
			if cand.T == 1 {
				if err := cl.Feed(serve.Event{User: model.UserID(u), Item: cand.I, T: 1, Adopted: true}); err != nil {
					t.Fatal(err)
				}
				fed = true
				break
			}
		}
	}
	if !fed {
		t.Fatal("instance has no step-1 candidate")
	}
	deadline := time.Now().Add(10 * time.Second)
	for cl.CoordinatorStats().Replans < 2 {
		if time.Now().After(deadline) {
			t.Fatal("flush ticker never drove a coordinated replan")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterServesSharded is the daemon-level sharded e2e: boot a
// 3-shard cluster the way run does, serve it over HTTP, and check that
// recommendations route, /v1/stats aggregates the fleet, and /metrics
// is a conformant exposition carrying per-shard labels.
func TestClusterServesSharded(t *testing.T) {
	cl, err := cluster.Open(daemonInstance(t), cluster.Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(cluster.Handler(cl))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/recommend?user=7&t=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/recommend code %d: %s", resp.StatusCode, body)
	}

	resp, err = http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Users   int `json:"users"`
		Cluster struct {
			Shards int `json:"shards"`
		} `json:"cluster"`
		PerShard []struct {
			Users int `json:"users"`
		} `json:"per_shard"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Users != 40 || stats.Cluster.Shards != 3 || len(stats.PerShard) != 3 {
		t.Fatalf("aggregated stats wrong: %+v", stats)
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if _, err := obs.ParseExposition(bytes.NewReader(metrics)); err != nil {
		t.Fatalf("merged /metrics fails conformance: %v", err)
	}
	if !strings.Contains(string(metrics), `shard="2"`) {
		t.Fatal("merged /metrics missing per-shard labels")
	}

	var out bytes.Buffer
	if err := drainAndStop(cl, "", &out); err != nil {
		t.Fatal(err)
	}
}

// TestClusterBootRecoversDurable drives bootCluster's two paths over
// one directory: fresh durable boot, graceful drain, then a second boot
// that must recover the fleet instead of re-generating the world.
func TestClusterBootRecoversDurable(t *testing.T) {
	dir := t.TempDir()
	cfg := cluster.Config{Shards: 2, Durability: &serve.Durability{Dir: dir}}
	cl, err := cluster.Open(daemonInstance(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		ev := serve.Event{User: model.UserID(k % 40), Item: model.ItemID(k % 8), T: 1, Adopted: k%5 == 0}
		if err := cl.Feed(ev); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := drainAndStop(cl, "", &out); err != nil {
		t.Fatal(err)
	}

	restarted, err := bootCluster(cfg, "", "", 0, 0, 0, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	if !strings.Contains(out.String(), "recovered 2-shard durable cluster") {
		t.Fatalf("restart did not recover the cluster: %q", out.String())
	}
	if got := restarted.Stats().Exposures; got != 10 {
		t.Fatalf("recovered cluster sees %d exposures, want 10", got)
	}
}
