package serve

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
)

// TestWindowRate drives the QPS window with synthetic clocks: the rate
// must be well-defined regardless of scrape cadence — the old
// scrape-delta scheme returned whatever happened since "the last
// scraper", so two scrapers halved each other's windows.
func TestWindowRate(t *testing.T) {
	m := newMeter(nil, nil)
	t0 := time.Unix(1000, 0)

	if r := m.windowRate(t0, 0); r != 0 {
		t.Fatalf("first sample rate = %v, want 0", r)
	}
	// 100 lookups over 1s → 100/s.
	if r := m.windowRate(t0.Add(time.Second), 100); math.Abs(r-100) > 1e-9 {
		t.Fatalf("rate after 1s = %v, want 100", r)
	}
	// A burst of scrapes at the same instant must not move the baseline:
	// each still sees the same 100/s over the same window.
	for i := 0; i < 10; i++ {
		if r := m.windowRate(t0.Add(time.Second), 100); math.Abs(r-100) > 1e-9 {
			t.Fatalf("repeat scrape %d rate = %v, want 100", i, r)
		}
	}
	// Sub-minGap scrapes don't append samples.
	m.windowRate(t0.Add(time.Second+100*time.Millisecond), 110)
	if n := len(m.qpsSamples); n != 2 {
		t.Fatalf("sample count after sub-gap scrape = %d, want 2", n)
	}
	// Traffic stops; once the window slides past the active period the
	// rate decays toward zero instead of being pinned by a stale baseline.
	if r := m.windowRate(t0.Add(30*time.Second), 200); r > 10 {
		t.Fatalf("rate 29s after last traffic = %v, want near 0", r)
	}
	// Old samples are pruned, not accumulated forever.
	for i := 0; i < 200; i++ {
		m.windowRate(t0.Add(30*time.Second+time.Duration(i)*time.Second), 200)
	}
	if n := len(m.qpsSamples); n > int(qpsWindow/qpsMinGap)+2 {
		t.Fatalf("sample ring grew unbounded: %d samples", n)
	}
}

// TestWindowRateSteadyState checks the rate over a steadily advancing
// clock stays at the true rate as the window slides.
func TestWindowRateSteadyState(t *testing.T) {
	m := newMeter(nil, nil)
	t0 := time.Unix(2000, 0)
	var served int64
	for i := 0; i < 100; i++ {
		now := t0.Add(time.Duration(i) * time.Second)
		r := m.windowRate(now, served)
		if i > 1 && math.Abs(r-50) > 1e-6 {
			t.Fatalf("steady-state rate at t=%ds is %v, want 50", i, r)
		}
		served += 50
	}
}

// TestConcurrentScrapers hammers /metrics rendering from many
// goroutines while lookups and feedback mutate the engine — the race
// detector guards the meter's scrape state, and every interleaved
// scrape must stay exposition-conformant.
func TestConcurrentScrapers(t *testing.T) {
	in := testInstance(t, 40, 6, 2, 1, 17)
	e := newTestEngine(t, in, Config{})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			u := g
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := e.Recommend(model.UserID(u%in.NumUsers), 1); err != nil {
					t.Error(err)
					return
				}
				u++
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var buf bytes.Buffer
				_ = e.WriteMetrics(&buf)
				if _, err := obs.ParseExposition(bytes.NewReader(buf.Bytes())); err != nil {
					t.Errorf("concurrent scrape fails conformance: %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestReplanTraceSpans forces a replan and asserts /debug/traces-shaped
// output: a complete replan trace whose children name every phase of
// the wrapper — state capture, residual build or delta sync, solve,
// index, swap — and whose solve child carries the candidate-scan/selection
// phase breakdown.
func TestReplanTraceSpans(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      Config
		children []string
	}{
		{"scratch", Config{}, []string{"snapshot", "residual", "solve", "index", "swap"}},
		// A live session replans from the delta journal: no state capture,
		// and no scan/selection split inside its solve.
		{"incremental", Config{Incremental: true}, []string{"delta-sync", "solve", "index", "swap"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testReplanTraceSpans(t, tc.cfg, tc.children)
		})
	}
}

func testReplanTraceSpans(t *testing.T, cfg Config, wantChildren []string) {
	in := testInstance(t, 30, 6, 2, 1, 23)
	cfg.ReplanEvery = 4
	e := newTestEngine(t, in, cfg)
	for u := 0; u < 8; u++ {
		if err := e.Feed(Event{User: model.UserID(u), Item: model.ItemID(u % 6), T: 1, Adopted: true}); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()
	traces := e.Tracer().Traces()
	if len(traces) == 0 {
		t.Fatal("no traces recorded")
	}
	var replan *obs.SpanData
	for i := range traces {
		if traces[i].Name == "replan" {
			replan = &traces[i]
		}
	}
	if replan == nil {
		t.Fatalf("no replan trace among %d traces", len(traces))
	}
	children := map[string]*obs.SpanData{}
	for i, c := range replan.Children {
		children[c.Name] = &replan.Children[i]
	}
	for _, want := range wantChildren {
		if children[want] == nil {
			t.Fatalf("replan trace missing %q child (have %v)", want, replan.Children)
		}
	}
	// An -incremental replan says what its session did, and nobody else does.
	for _, attr := range []string{"dirty_cands", "restored_pairs", "unwound_cands", "replayed_groups"} {
		if _, ok := replan.Attrs[attr]; ok != cfg.Incremental {
			t.Fatalf("replan span attribute %q present = %v on an engine with Incremental = %v (attrs %v)",
				attr, ok, cfg.Incremental, replan.Attrs)
		}
	}
	solve := children["solve"]
	if solve == nil || children["residual"] == nil {
		return // only a from-scratch registry solve reports its phases
	}
	var phases []string
	for _, c := range solve.Children {
		phases = append(phases, c.Name)
	}
	if !strings.Contains(strings.Join(phases, ","), "candidate-scan") ||
		!strings.Contains(strings.Join(phases, ","), "selection") {
		t.Fatalf("solve span phases = %v, want candidate-scan and selection", phases)
	}
	// The JSON endpoint payload parses and mentions the replan.
	var buf bytes.Buffer
	if err := e.Tracer().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"replan"`)) {
		t.Fatalf("trace JSON missing replan root:\n%s", buf.String())
	}
}
