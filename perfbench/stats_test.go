package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values of Python's
// statistics.quantiles(xs, n=4), the default "exclusive" method.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1}, 0, 6},
		{[]float64{2.5, 0.5, 9, 4, 4.25, 7, 1.5}, 1.5, 7},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %g, want 1", got)
	}
}

func TestPairWins(t *testing.T) {
	base := []float64{10, 10, 10, 10}
	next := []float64{9, 10, 11, 8, 1} // the fifth has no partner
	if w, n := pairWins(base, next, true); w != 2 || n != 4 {
		t.Errorf("lower-better wins = %d/%d, want 2/4 (the tie counts for neither)", w, n)
	}
	if w, n := pairWins(base, next, false); w != 1 || n != 4 {
		t.Errorf("higher-better wins = %d/%d, want 1/4", w, n)
	}
}

func TestVerdicts(t *testing.T) {
	steady := []float64{10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10.02, 9.98, 10}
	shift := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * by
		}
		return out
	}
	for _, c := range []struct {
		name       string
		base, next []float64
		bound      float64
		want       string
	}{
		{"within bound", steady, shift(steady, 1.02), 0.05, "ok"},
		{"beyond bound", steady, shift(steady, 1.2), 0.05, "regression"},
		{"every new run better", steady, shift(steady, 0.5), 0.05, "improved"},
		{"spread wider than bound", []float64{5, 10, 15, 20, 8, 12}, []float64{5, 10, 15, 20, 8, 12}, 0.05, "unresolved"},
		{"per-layer, no change", steady, steady, 0, "-"},
		{"per-layer, pairs won", steady, shift(steady, 0.9), 0, "improved"},
	} {
		v := verdict{Base: c.base, Next: c.next, Bound: c.bound, LowerBetter: true}
		if got := v.judge(); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareRecords(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, walls ...float64) string {
		path := dir + "/" + name
		var lines []string
		for _, w := range walls {
			rec := &record{Workload: "soap-campaign", Metrics: map[string]float64{
				"wall_s": w, "setup_s": 1, "cpu_s": w, "peak_rss_mib": 100,
			}}
			line, err := json.Marshal(map[string]*record{"record": rec})
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, "wall_s ...", string(line), `{"correct":true}`)
		}
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bench := dir + "/BENCHMARK.json"
	if err := os.WriteFile(bench, []byte(`{"end_to_end": [{"name": "wall_s", "bound": 0.1}, {"name": "cpu_s", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base := write("base.txt", 10, 10.1, 9.9, 10, 10.05)
	slower := write("slower.txt", 12, 12.1, 11.9, 12, 12.05)
	var out bytes.Buffer
	code, err := dispatch([]string{"compare", "--bench", bench, base, slower}, &out)
	if err != nil || code != 1 {
		t.Fatalf("compare: code %d, err %v, want 1 for a regression\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "regression") || !strings.Contains(out.String(), "0/5") {
		t.Errorf("compare output lacks the regression verdict or pair count:\n%s", out.String())
	}
	out.Reset()
	if code, err := dispatch([]string{"compare", "--bench", bench, base, base}, &out); err != nil || code != 0 {
		t.Errorf("compare of a set with itself: code %d, err %v\n%s", code, err, out.String())
	}
}

func TestSplitClaims(t *testing.T) {
	shares := map[string]float64{
		"graph-takedown/split.graph_ddsr_frac": 0.94,
		"soap-campaign/split.graph_ddsr_frac":  0,
		"soap-campaign/split.tor_frac":         0.33,
		"churn-faults/split.tor_frac":          0.14,
		"churn-faults/split.crypto_frac":       0.2,
		"soap-campaign/split.crypto_frac":      0.28,
	}
	got := splitClaims(func(wl, metric string) (float64, bool) {
		v, ok := shares[wl+"/"+metric]
		return v, ok
	})
	want := []string{"CONFIRMED", "CONFIRMED", "CONFIRMED", "REFUTED"}
	for i, line := range got {
		if !strings.HasPrefix(line, want[i]) {
			t.Errorf("claim %d: %q, want %s", i, line, want[i])
		}
	}
	delete(shares, "churn-faults/split.tor_frac")
	if got := splitClaims(func(wl, metric string) (float64, bool) {
		v, ok := shares[wl+"/"+metric]
		return v, ok
	}); !strings.HasPrefix(got[2], "MISSING") {
		t.Errorf("claim without data: %q, want MISSING", got[2])
	}
}
