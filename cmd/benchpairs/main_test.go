package main

import "testing"

func TestSummarize(t *testing.T) {
	lower := metric{Name: "replan_lag_ms", Better: "lower", Bound: 0.25}
	higher := metric{Name: "lookup_qps", Better: "higher", Bound: 0.25}
	for _, tc := range []struct {
		name       string
		m          metric
		base, head []float64
		headFailed int
		wins       int
		verdict    string
	}{
		{"clear gain", lower,
			[]float64{7.4, 7.6, 7.5, 7.7, 7.5, 7.3, 7.6, 7.5, 7.8, 7.4},
			[]float64{2.1, 2.0, 2.2, 2.1, 2.3, 2.0, 2.1, 2.2, 2.1, 2.0}, 0, 10, "gain"},
		{"faster by failing requests", lower,
			[]float64{7.4, 7.6, 7.5, 7.7, 7.5, 7.3, 7.6, 7.5, 7.8, 7.4},
			[]float64{2.1, 2.0, 2.2, 2.1, 2.3, 2.0, 2.1, 2.2, 2.1, 2.0}, 3, 10, "gain void: more failures than base"},
		{"difference inside the base's own spread", lower,
			[]float64{50, 70, 55, 65, 60, 52, 68, 58, 62, 66},
			[]float64{49, 69, 54, 64, 59, 51, 67, 57, 61, 65}, 0, 10, "unresolved"},
		{"better, but only seven pairs in ten", lower,
			[]float64{10, 10.1, 10, 10.1, 10, 10.1, 10, 10.1, 10, 10.1},
			[]float64{9, 9, 9, 9, 9, 9, 9, 11, 11, 11}, 0, 7, "better, under 9 in 10"},
		{"regression beyond the bound", lower,
			[]float64{10, 10.1, 10, 10.1, 10, 10.1, 10, 10.1, 10, 10.1},
			[]float64{14, 14, 14, 14, 14, 14, 14, 14, 14, 14}, 0, 0, "WORSE beyond bound"},
		{"regression within the bound", higher,
			[]float64{1000, 1001, 1000, 1001, 1000, 1001, 1000, 1001, 1000, 1001},
			[]float64{950, 950, 950, 950, 950, 950, 950, 950, 950, 950}, 0, 0, "worse within bound"},
		{"every head run better, lower is better, inside the base's spread", lower,
			[]float64{10, 10.1, 10.2, 10.3, 10.4, 10.5, 20, 30, 40, 50},
			[]float64{9.9, 9.9, 9.9, 9.9, 9.9, 9.9, 9.9, 9.9, 9.9, 9.9}, 0, 10, "better, inside base spread (10/10)"},
		{"every head run better, higher is better, inside the base's spread", higher,
			[]float64{100, 99.9, 99.8, 99.7, 99.6, 99.5, 90, 80, 70, 60},
			[]float64{100.1, 100.1, 100.1, 100.1, 100.1, 100.1, 100.1, 100.1, 100.1, 100.1}, 0, 10, "better, inside base spread (10/10)"},
		{"higher is better", higher,
			[]float64{1000, 1001, 1000, 1001, 1000, 1001, 1000, 1001, 1000, 1001},
			[]float64{1500, 1500, 1500, 1500, 1500, 1500, 1500, 1500, 1500, 1000}, 0, 9, "gain"},
	} {
		s := summarize(tc.m, tc.base, tc.head, 0, tc.headFailed)
		if s.wins != tc.wins || s.verdict != tc.verdict {
			t.Errorf("%s: wins %d verdict %q, want %d %q (medians %g → %g, base q3-q1 %g)",
				tc.name, s.wins, s.verdict, tc.wins, tc.verdict, s.baseMedian, s.headMedian, s.baseIQR)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for q, want := range map[float64]float64{0: 1, 0.25: 2, 0.5: 3, 0.75: 4, 1: 5, 0.125: 1.5} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, q, got, want)
		}
	}
	if got := quantile([]float64{7}, 0.75); got != 7 {
		t.Errorf("quantile of one reading = %g, want 7", got)
	}
}
