package serve_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
)

var updateTranscripts = flag.Bool("update", false, "rewrite the testdata/transcript goldens")

// transcriptTraceID is the X-Trace-Id the script's traced requests
// carry; it is kept verbatim in every transcript, while generated IDs
// are masked.
const transcriptTraceID = "00000000000000ab"

// transcriptBackend is a backend the script can also flush: the
// synchronization point that makes each exchange deterministic.
type transcriptBackend interface {
	backend
	Flush()
}

// mayDiffer lists every exchange of the script whose bytes may differ
// between the engine and the 2-shard cluster. With sameErrorPrefix it is
// the whole contract between the two backends of one HTTP front: every
// other exchange matches byte for byte — status, headers and body.
var mayDiffer = map[string]string{
	"healthz ok":       "each backend lists its own SLO objectives (engine: replan_p99; cluster: barrier_p99)",
	"healthz degraded": "each backend lists its own SLO objectives (engine: replan_p99; cluster: barrier_p99)",
	"stats":            "the cluster adds coordinator and per-shard summaries; its merged counters count the boot install as a replan",
	"metrics":          "the cluster labels every engine family with shard, except the solve and warm-start families its coordinator exports unlabelled, and adds the coordinator's own families",
	"traces":           "the cluster's document groups shard-labeled spans by trace ID",
}

// sameErrorPrefix rewrites the one difference allowed in every other
// exchange: a validation error the cluster router raises itself (an
// unknown user, a backwards clock) is prefixed "cluster:" where the
// engine's is prefixed "serve:".
func sameErrorPrefix(text string) string {
	return strings.ReplaceAll(text, `{"error":"cluster: `, `{"error":"serve: `)
}

// TestHTTPTranscripts replays one deterministic request script against
// an in-memory engine and a 2-shard cluster on the same instance and
// holds each backend's wire bytes — status, Content-Type, X-Trace-Id,
// body — to a committed golden. Values that depend on the clock or on
// random IDs are masked; nothing else is. Regenerate with
//
//	go test ./internal/serve -run TestHTTPTranscripts -update
func TestHTTPTranscripts(t *testing.T) {
	in := backendInstance()
	// The watchdog never ticks on its own during the script: the
	// script evaluates it explicitly.
	slo := serve.SLOConfig{Interval: time.Hour}
	e, err := serve.NewEngine(in, serve.Config{ReplanEvery: 1 << 30, SLO: slo})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	cl, err := cluster.New(in, cluster.Config{Shards: 2, ReplanEvery: 1 << 30, SLO: slo})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	engine := runTranscript(t, serve.Handler(e), e)
	clustered := runTranscript(t, cluster.Handler(cl), cl)
	checkGolden(t, "engine.txt", engine)
	checkGolden(t, "cluster.txt", clustered)

	if len(engine) != len(clustered) {
		t.Fatalf("engine ran %d exchanges, cluster %d", len(engine), len(clustered))
	}
	for i, ex := range engine {
		if ex.name != clustered[i].name {
			t.Fatalf("exchange %d: engine %q, cluster %q", i, ex.name, clustered[i].name)
		}
		if _, ok := mayDiffer[ex.name]; ok || ex.text == sameErrorPrefix(clustered[i].text) {
			continue
		}
		t.Errorf("exchange %q differs between the backends:\nengine:\n%s\ncluster:\n%s", ex.name, ex.text, clustered[i].text)
	}
	checkShardLabel(t, engine, clustered)
}

// checkShardLabel holds the metrics exchange to its contract: every
// engine family is in the cluster exposition under the same name and
// type, its label names plus shard — except the solve and warm-start
// families (solveFamily), which belong to whoever solves: install-only
// shard engines export none, so they appear once, with the engine's
// label names, from the coordinator.
func checkShardLabel(t *testing.T, engine, clustered []exchange) {
	t.Helper()
	families := func(xs []exchange) map[string]string {
		for _, ex := range xs {
			if ex.name != "metrics" {
				continue
			}
			out := make(map[string]string)
			for _, line := range strings.Split(ex.body, "\n") {
				if name, rest, ok := strings.Cut(line, " "); ok {
					out[name] = rest
				}
			}
			return out
		}
		t.Fatal("no metrics exchange")
		return nil
	}
	cf := families(clustered)
	solveFams := 0
	for name, desc := range families(engine) {
		typ, labels, _ := strings.Cut(desc, " ")
		want := typ + " " + addLabel(labels, "shard")
		if solveFamily(name) {
			want = desc
			solveFams++
		}
		if got := cf[name]; got != want {
			t.Errorf("metrics family %s: engine %q, cluster %q, want %q", name, desc, got, want)
		}
	}
	if solveFams != 9 {
		t.Errorf("engine exports %d solve and warm-start families, want 9", solveFams)
	}
}

// solveFamily reports whether name is one of the nine families of
// planner.Replanner's solve and warm-start telemetry.
func solveFamily(name string) bool {
	return strings.HasPrefix(name, "revmaxd_solve_") || strings.HasPrefix(name, "revmaxd_warm_")
}

// addLabel inserts name into a rendered "[a b c]" label-name set.
func addLabel(set, name string) string {
	names := strings.Fields(strings.Trim(set, "[]"))
	names = append(names, name)
	sort.Strings(names)
	return "[" + strings.Join(names, " ") + "]"
}

// exchange is one request/response pair of a transcript: its name, the
// response body as masked, and the rendered text the golden holds.
type exchange struct {
	name, body, text string
}

// transcript sends the script's requests straight into a handler and
// renders each exchange.
type transcript struct {
	t  *testing.T
	h  http.Handler
	xs []exchange
}

func (tr *transcript) send(method, target, traceID, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, strings.NewReader(body))
	if traceID != "" {
		req.Header.Set("X-Trace-Id", traceID)
	}
	w := httptest.NewRecorder()
	tr.h.ServeHTTP(w, req)
	return w
}

// do sends one request, records the exchange under name with its body
// passed through mask (nil keeps it verbatim, abbreviating a long one),
// and returns the raw response body.
func (tr *transcript) do(name, method, target, traceID, body string, mask func([]byte) []byte) []byte {
	tr.t.Helper()
	w := tr.send(method, target, traceID, body)
	raw := w.Body.Bytes()
	shown := abbreviate(raw, 4096)
	if mask != nil {
		shown = string(mask(raw))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n> %s %s\n", name, method, target)
	if traceID != "" {
		fmt.Fprintf(&b, "> X-Trace-Id: %s\n", traceID)
	}
	if body != "" {
		fmt.Fprintf(&b, "> %s\n", abbreviate([]byte(body), 256))
	}
	fmt.Fprintf(&b, "< %d\n< Content-Type: %s\n", w.Code, w.Header().Get("Content-Type"))
	if id := w.Header().Get("X-Trace-Id"); id != "" {
		fmt.Fprintf(&b, "< X-Trace-Id: %s\n", id)
	}
	fmt.Fprintf(&b, "%s\n", strings.TrimSuffix(shown, "\n"))
	tr.xs = append(tr.xs, exchange{name: name, body: shown, text: b.String()})
	return raw
}

// abbreviate keeps short payloads verbatim and stands in a length and
// digest for long ones (the oversize and at-the-limit requests).
func abbreviate(b []byte, max int) string {
	if len(b) <= max {
		return string(b)
	}
	return fmt.Sprintf("<%d bytes, sha256 %x>", len(b), sha256.Sum256(b))
}

// runTranscript is the script: every route, the ok and degraded
// health verdicts, the 400, 413 and 503 bodies, the exposition and the
// trace dump, in one fixed order.
func runTranscript(t *testing.T, h http.Handler, b transcriptBackend) []exchange {
	t.Helper()
	tr := &transcript{t: t, h: h}
	pad := strings.Repeat(" ", serve.MaxRequestBytes)
	users := func(n int) string { return strings.TrimSuffix(strings.Repeat("1,", n), ",") }

	tr.do("healthz ok", "GET", "/healthz", "", "", maskKeys("value"))
	tr.do("recommend", "GET", "/v1/recommend?user=3&t=2", "", "", nil)
	tr.do("recommend traced", "GET", "/v1/recommend?user=4&t=2", transcriptTraceID, "", nil)
	tr.do("recommend malformed trace id", "GET", "/v1/recommend?user=4&t=2", "not-hex", "", nil)
	tr.do("recommend missing params", "GET", "/v1/recommend", "", "", nil)
	tr.do("recommend non-integer user", "GET", "/v1/recommend?user=x&t=1", "", "", nil)
	tr.do("recommend unknown user", "GET", "/v1/recommend?user=999&t=1", "", "", nil)
	tr.do("recommend negative user", "GET", "/v1/recommend?user=-5&t=1", "", "", nil)
	tr.do("recommend t out of range", "GET", "/v1/recommend?user=1&t=99", "", "", nil)
	tr.do("recommend user wraps int32", "GET", "/v1/recommend?user=4294967297&t=2", "", "", nil)
	tr.do("recommend negative user wraps int32", "GET", "/v1/recommend?user=-4294967295&t=2", "", "", nil)
	tr.do("recommend t wraps int32", "GET", "/v1/recommend?user=1&t=4294967298", "", "", nil)
	batch := tr.do("batch", "POST", "/v1/recommend/batch", "", `{"users":[3,4,13,14,23],"t":2}`, nil)
	tr.do("batch traced", "POST", "/v1/recommend/batch", transcriptTraceID, `{"users":[18,22],"t":2}`, nil)
	tr.do("batch malformed", "POST", "/v1/recommend/batch", "", `{"users":`, nil)
	tr.do("batch unknown user", "POST", "/v1/recommend/batch", "", `{"users":[1,999],"t":1}`, nil)
	tr.do("batch oversize", "POST", "/v1/recommend/batch", "", `{"users":[1],`+pad+`"t":1}`, nil)
	tr.do("batch too many users", "POST", "/v1/recommend/batch", "", `{"users":[`+users(serve.MaxBatchUsers+1)+`],"t":1}`, nil)
	tr.do("batch users at the limit", "POST", "/v1/recommend/batch", "", `{"users":[`+users(serve.MaxBatchUsers)+`],"t":1}`, nil)

	// Adopt the first recommendation the batch served.
	var served struct {
		Results []struct {
			User  int                    `json:"user"`
			Items []serve.Recommendation `json:"items"`
		} `json:"results"`
	}
	if err := json.Unmarshal(batch, &served); err != nil {
		t.Fatal(err)
	}
	adopt := ""
	for _, r := range served.Results {
		if len(r.Items) > 0 && adopt == "" {
			adopt = fmt.Sprintf(`{"user":%d,"item":%d,"t":2,"adopted":true}`, r.User, r.Items[0].Item)
		}
	}
	if adopt == "" {
		t.Fatalf("the batch served nothing to adopt: %s", batch)
	}
	tr.do("adopt", "POST", "/v1/adopt", "", adopt, nil)
	tr.do("adopt traced", "POST", "/v1/adopt", transcriptTraceID, `{"user":4,"item":2,"t":2,"adopted":false}`, nil)
	tr.do("adopt malformed", "POST", "/v1/adopt", "", `{"user":"three"}`, nil)
	tr.do("adopt unknown user", "POST", "/v1/adopt", "", `{"user":999,"item":0,"t":1}`, nil)
	tr.do("adopt oversize", "POST", "/v1/adopt", "", `{"user":1,"item":0,"t":1,`+pad+`"adopted":false}`, nil)
	b.Flush()
	tr.do("recommend after adopt", "GET", "/v1/recommend?user=3&t=2", "", "", nil)

	tr.do("advance traced", "POST", "/v1/advance", transcriptTraceID, `{"now":3}`, nil)
	b.Flush()
	tr.do("advance backwards", "POST", "/v1/advance", "", `{"now":2}`, nil)
	tr.do("advance malformed", "POST", "/v1/advance", "", `{"now":"two"}`, nil)
	tr.do("advance oversize", "POST", "/v1/advance", "", pad+`{"now":3}`, nil)
	tr.do("advance two JSON values", "POST", "/v1/advance", "", `{"now":4}{"now":5}`, nil)
	tr.do("advance trailing garbage", "POST", "/v1/advance", "", `{"now":4} garbage`, nil)
	tr.do("recommend after advance", "GET", "/v1/recommend?user=3&t=3", "", "", nil)
	tr.do("batch after advance", "POST", "/v1/recommend/batch", "", `{"users":[2,3,7,9,23],"t":3}`, nil)

	tr.do("stats", "GET", "/v1/stats", "", "", maskStats)
	tr.do("metrics", "GET", "/metrics", "", "", familyList)
	tr.do("traces", "GET", "/debug/traces", "", "", maskTraces)

	// Breach the error-rate objective: open a window, fill it with
	// lookups a shard engine rejects, evaluate it.
	b.SLO().Evaluate()
	for i := 0; i < 20; i++ {
		tr.send("GET", "/v1/recommend?user=1&t=99", "", "")
	}
	b.SLO().Evaluate()
	tr.do("healthz degraded", "GET", "/healthz", "", "", maskKeys("value"))

	b.Close()
	tr.do("recommend closed", "GET", "/v1/recommend?user=3&t=3", "", "", nil)
	tr.do("adopt closed", "POST", "/v1/adopt", "", `{"user":3,"item":0,"t":3,"adopted":true}`, nil)
	tr.do("adopt closed unknown user", "POST", "/v1/adopt", "", `{"user":999,"item":0,"t":3}`, nil)
	tr.do("advance closed", "POST", "/v1/advance", "", `{"now":3}`, nil)
	return tr.xs
}

// maskKeys masks the numeric values of the named JSON keys.
func maskKeys(keys ...string) func([]byte) []byte {
	re := regexp.MustCompile(`"(` + strings.Join(keys, "|") + `)":-?[0-9][0-9.eE+-]*`)
	return func(b []byte) []byte { return re.ReplaceAll(b, []byte(`"$1":"<masked>"`)) }
}

var (
	statsTimings = maskKeys("uptime_seconds", "p50_micros", "p99_micros", "batch_p50_micros", "batch_p99_micros")
	lockStripes  = regexp.MustCompile(`"shards":[0-9]+,"now"`)
)

// maskStats masks a stats body's timings and each engine's lock-stripe
// count, which follows GOMAXPROCS; the cluster's own shard count stays.
func maskStats(b []byte) []byte {
	return lockStripes.ReplaceAll(statsTimings(b), []byte(`"shards":"<masked>","now"`))
}

// familyList renders a Prometheus exposition as its sorted families —
// name, type and label names — with every value masked.
func familyList(b []byte) []byte {
	fams, err := obs.ParseExposition(bytes.NewReader(b))
	if err != nil {
		return []byte("unparseable exposition: " + err.Error())
	}
	lines := make([]string, 0, len(fams))
	for name, f := range fams {
		seen := make(map[string]bool)
		for _, s := range f.Samples {
			for l := range s.Labels {
				seen[l] = true
			}
		}
		labels := make([]string, 0, len(seen))
		for l := range seen {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		lines = append(lines, fmt.Sprintf("%s %s [%s]", name, f.Type, strings.Join(labels, " ")))
	}
	sort.Strings(lines)
	return []byte(strings.Join(lines, "\n") + "\n")
}

// maskTraces keeps a /debug/traces document's shape — nesting, span
// names, shard labels, attributes — and masks generated IDs, times and
// durations. The script's own trace ID stays visible.
func maskTraces(b []byte) []byte {
	var doc any
	if err := json.Unmarshal(b, &doc); err != nil {
		return []byte("unparseable traces: " + err.Error())
	}
	var walk func(v any) any
	walk = func(v any) any {
		switch v := v.(type) {
		case map[string]any:
			for k, x := range v {
				switch k {
				case "trace_id", "span_id", "parent_id":
					if x != transcriptTraceID {
						v[k] = "<id>"
					}
				case "start", "duration_ns":
					v[k] = "<masked>"
				default:
					v[k] = walk(x)
				}
			}
		case []any:
			for i, x := range v {
				v[i] = walk(x)
			}
		}
		return v
	}
	doc = walk(doc)
	// Top-level entries are in time order, which masking the times
	// leaves undetermined (a barrier's shard installs run concurrently):
	// list them sorted by their masked encoding instead.
	if m, ok := doc.(map[string]any); ok {
		if traces, ok := m["traces"].([]any); ok {
			sort.Slice(traces, func(i, j int) bool { return encode(traces[i], "") < encode(traces[j], "") })
		}
	}
	return []byte(encode(doc, "  "))
}

// encode renders v as JSON without HTML escaping, so masks read as
// "<id>" rather than "\u003cid\u003e".
func encode(v any, indent string) string {
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", indent)
	if err := enc.Encode(v); err != nil {
		return err.Error()
	}
	return b.String()
}

func checkGolden(t *testing.T, name string, xs []exchange) {
	t.Helper()
	var b strings.Builder
	for _, ex := range xs {
		b.WriteString(ex.text)
		b.WriteString("\n")
	}
	got := b.String()
	path := filepath.Join("testdata", "transcript", name)
	if *updateTranscripts {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to generate): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s differs from this run at line %d:\n want %q\n  got %q", path, i+1, wl[i], gl[i])
		}
	}
	t.Fatalf("%s differs from this run in length: want %d lines, got %d", path, len(wl), len(gl))
}
