package cluster

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/serve"
)

// maxRescales scales item 0 up by the largest accepted factor 60 times:
// an unbounded running product would pass 10^308 after 52 of them.
func maxRescales(t *testing.T, scale func(model.ItemID, model.TimeStep, float64) error) {
	t.Helper()
	for k := 0; k < 60; k++ {
		if err := scale(0, 1, 1e6); err != nil {
			t.Fatalf("rescale %d: %v", k, err)
		}
	}
}

// requireSaneStats fails unless h answers /v1/stats with a finite
// plan_revenue.
func requireSaneStats(t *testing.T, what string, h http.Handler) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st struct {
		PlanRevenue *float64 `json:"plan_revenue"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); rec.Code != http.StatusOK || err != nil || st.PlanRevenue == nil {
		t.Fatalf("%s: /v1/stats answered %d %q (%v)", what, rec.Code, rec.Body.String(), err)
	}
	if math.IsInf(*st.PlanRevenue, 0) || math.IsNaN(*st.PlanRevenue) {
		t.Fatalf("%s: plan_revenue %v", what, *st.PlanRevenue)
	}
}

// requirePrices fails unless every price of x is finite and positive and
// bit-equal to want's.
func requirePrices(t *testing.T, what string, x, want *model.Instance) {
	t.Helper()
	for i := 0; i < x.NumItems(); i++ {
		for ts := model.TimeStep(1); int(ts) <= x.T; ts++ {
			p := x.Price(model.ItemID(i), ts)
			if !(p > 0 && p <= model.MaxPrice) {
				t.Fatalf("%s: item %d price %v at t=%d", what, i, p, ts)
			}
			if w := want.Price(model.ItemID(i), ts); math.Float64bits(p) != math.Float64bits(w) {
				t.Fatalf("%s: item %d price %v at t=%d, want %v", what, i, p, ts, w)
			}
		}
	}
}

// TestScalePriceSaturates: 60 maximal rescales leave every price finite
// and positive — on an engine, on the same engine after kill -9 and WAL
// replay, and on a 2-shard cluster whose global, coordinator-session and
// shard price tables stay bit-equal — and /v1/stats keeps answering with
// a finite plan_revenue.
func TestScalePriceSaturates(t *testing.T) {
	in := testInstance(t, 24, 7)
	t.Run("engine", func(t *testing.T) {
		cfg := serve.Config{ReplanEvery: 1 << 30, Durability: &serve.Durability{Dir: t.TempDir()}}
		e, err := serve.Open(in.Clone(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		maxRescales(t, e.ScalePrice)
		if err := e.Sync(); err != nil {
			t.Fatal(err)
		}
		requireSaneStats(t, "live", serve.Handler(e))
		if got := e.Instance().Price(0, 1); got != model.MaxPrice {
			t.Fatalf("saturated price %v, want %v", got, model.MaxPrice)
		}
		want := e.Instance().ClonePrices()
		requirePrices(t, "live", e.Instance(), want)
		e.Kill()

		r, err := serve.Open(nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		requirePrices(t, "recovered", r.Instance(), want)
		requireSaneStats(t, "recovered", serve.Handler(r))
	})
	t.Run("cluster", func(t *testing.T) {
		cl, err := New(in.Clone(), Config{Shards: 2, Incremental: true, ReplanEvery: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if err := cl.SetNow(2); err != nil { // the barrier replan starts the coordinator session
			t.Fatal(err)
		}
		before := cl.Instance()
		for _, bad := range []struct {
			i    model.ItemID
			from model.TimeStep
			f    float64
		}{{99, 1, 2}, {0, model.TimeStep(in.T + 1), 2}, {0, 1, 0}, {0, 1, math.NaN()}, {0, 1, 1e7}} {
			if err := cl.ScalePrice(bad.i, bad.from, bad.f); err == nil || !strings.HasPrefix(err.Error(), "serve: ") {
				t.Fatalf("ScalePrice(%d, %d, %v): error %v, want the shard engines' serve: rejection", bad.i, bad.from, bad.f, err)
			}
		}
		if cl.Instance() != before {
			t.Fatal("a rejected rescale published a new global instance")
		}
		maxRescales(t, cl.ScalePrice)
		cl.Flush()
		global := cl.Instance()
		requirePrices(t, "global", global, global)
		cl.mu.Lock()
		requirePrices(t, "coordinator session", cl.rp.Session().Instance(), global)
		cl.mu.Unlock()
		for k := 0; k < cl.Shards(); k++ {
			requirePrices(t, "shard", cl.Engine(k).Instance(), global)
		}
		requireSaneStats(t, "cluster", Handler(cl))
	})
}
