package experiment

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func TestParseSweepValidates(t *testing.T) {
	cases := []struct {
		name, spec, wantErr string
	}{
		{"no experiments", `{"name":"x"}`, "no experiments"},
		{"unknown field", `{"experiments":["fig6"],"seed":[1]}`, "seed"},
		{"negative trials", `{"experiments":["fig6"],"trials":-1}`, "negative trials"},
		{"bad json", `{`, "parse sweep"},
	}
	for _, tc := range cases {
		if _, err := ParseSweep([]byte(tc.spec)); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestParseSweepRejectsBadStore pins that the retired "stores" axis is
// refused outright: there is one descriptor store, so any spec naming
// stores — unknown, duplicated or otherwise — is an unknown field.
func TestParseSweepRejectsBadStore(t *testing.T) {
	for _, spec := range []string{
		`{"experiments":["fig6"],"stores":["ramdisk"]}`,
		`{"experiments":["fig6"],"stores":["mmap","mmap"]}`,
		`{"experiments":["churn-hotlist"],"stores":["flat"]}`,
	} {
		if _, err := ParseSweep([]byte(spec)); err == nil || !strings.Contains(err.Error(), `"stores"`) {
			t.Errorf("%s: err = %v, want unknown field \"stores\"", spec, err)
		}
	}
}

func TestParseSweepDefaultsName(t *testing.T) {
	s, err := ParseSweep([]byte(`{"experiments":["fig6","fig3"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "fig6+fig3" {
		t.Fatalf("defaulted name = %q", s.Name)
	}
}

func TestSweepGridExpansion(t *testing.T) {
	s := &Sweep{
		Name:        "grid",
		Experiments: []string{"fig6"},
		Quick:       true,
		Ns:          []int{500, 600},
		Seeds:       []uint64{1, 2, 3},
	}
	tasks, err := s.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 6 {
		t.Fatalf("expanded to %d tasks, want 2*3 = 6", len(tasks))
	}
	// Deterministic order, axis values threaded into params, labels
	// reflect only the axes the spec set.
	first := tasks[0]
	if first.Label != "fig6/n=500/seed=1" {
		t.Fatalf("first label = %q", first.Label)
	}
	if first.Params.N != 500 || first.Params.Seed != 1 || !first.Params.Quick {
		t.Fatalf("first params = %+v", first.Params)
	}
	if first.Params.K != 0 || first.Params.Frac != 0 {
		t.Fatalf("unset axes leaked into params: %+v", first.Params)
	}
	last := tasks[5]
	if last.Label != "fig6/n=600/seed=3" || last.Params.N != 600 || last.Params.Seed != 3 {
		t.Fatalf("last task = %+v", last)
	}
	seen := map[string]bool{}
	for _, task := range tasks {
		if seen[task.Label] {
			t.Fatalf("duplicate label %q", task.Label)
		}
		seen[task.Label] = true
	}
}

func TestSweepTrialsGetDistinctSubstreams(t *testing.T) {
	s := &Sweep{Name: "t", Experiments: []string{"fig3"}, Trials: 3}
	tasks, err := s.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 3 {
		t.Fatalf("expanded to %d tasks, want 3 trials", len(tasks))
	}
	trs, err := (&Runner{Parallel: 3}).Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[uint64]bool{}
	for _, tr := range trs {
		seeds[tr.EffectiveSeed] = true
	}
	if len(seeds) != 3 {
		t.Fatalf("trials share substreams: %d distinct effective seeds, want 3", len(seeds))
	}
}

func TestSweepRejectsUnknownExperiment(t *testing.T) {
	s := &Sweep{Name: "bad", Experiments: []string{"fig6", "nope"}}
	if _, err := s.Tasks(); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("err = %v, want unknown experiment", err)
	}
}

func TestSweepEndToEndAggregate(t *testing.T) {
	// Acceptance shape: >= 9 grid points fanned through the pool into
	// one aggregated result, identical at any parallelism.
	s := &Sweep{
		Name:        "fig6-mini",
		Experiments: []string{"fig6"},
		Quick:       true,
		Ns:          []int{500, 600, 700},
		Seeds:       []uint64{1, 2, 3},
	}
	tasks, err := s.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 9 {
		t.Fatalf("grid = %d tasks, want 9", len(tasks))
	}
	run := func(parallel int) (*Result, []TaskResult) {
		trs, err := (&Runner{Parallel: parallel}).Run(tasks)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range trs {
			if tr.Err != nil {
				t.Fatalf("%s: %v", tr.Task.Label, tr.Err)
			}
		}
		return s.Aggregate(trs), trs
	}
	agg1, _ := run(1)
	agg8, trs := run(8)
	if agg1.Render() != agg8.Render() {
		t.Fatalf("aggregate differs across parallelism:\n%s\n---\n%s", agg1.Render(), agg8.Render())
	}
	// 9 tasks x 2 series (Graph + reference line) = 18 raw rows, plus
	// one cross-seed (mean±sd seeds) row per n × series = 6 more.
	if len(agg8.Rows) != 24 {
		t.Fatalf("aggregate has %d rows, want 24", len(agg8.Rows))
	}
	if agg8.ID != "sweep-fig6-mini" {
		t.Fatalf("aggregate id = %q", agg8.ID)
	}

	doc, err := SweepJSON(s, trs, agg8)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Sweep struct {
			Name string `json:"name"`
		} `json:"sweep"`
		Tasks []struct {
			Task struct {
				Label string `json:"label"`
			} `json:"task"`
			EffectiveSeed uint64 `json:"effective_seed"`
		} `json:"tasks"`
		Aggregate struct {
			ID   string     `json:"id"`
			Rows [][]string `json:"rows"`
		} `json:"aggregate"`
	}
	if err := json.Unmarshal(doc, &decoded); err != nil {
		t.Fatalf("sweep JSON does not round-trip: %v", err)
	}
	if decoded.Sweep.Name != "fig6-mini" || len(decoded.Tasks) != 9 || len(decoded.Aggregate.Rows) != 24 {
		t.Fatalf("decoded doc wrong shape: %+v", decoded)
	}
	if decoded.Tasks[0].EffectiveSeed == 0 {
		t.Fatal("effective seed missing from JSON")
	}
}

func TestSweepAggregateReportsFailures(t *testing.T) {
	s := &Sweep{Name: "f", Experiments: []string{"fig3"}}
	agg := s.Aggregate([]TaskResult{
		{Task: Task{Label: "broken"}, Err: errors.New("boom")},
	})
	if len(agg.Rows) != 1 || !strings.Contains(agg.Rows[0][1], "error: boom") {
		t.Fatalf("failure row missing: %v", agg.Rows)
	}
	found := false
	for _, n := range agg.Notes {
		if strings.Contains(n, "1/1 tasks failed") {
			found = true
		}
	}
	if !found {
		t.Fatalf("failure note missing: %v", agg.Notes)
	}
}
