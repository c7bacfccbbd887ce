package main

import (
	"strings"
	"testing"

	"onionbots/internal/experiment"
)

// runIDs resolves -exp the way main does and runs the tasks serially.
func runIDs(t *testing.T, exp string, quick bool, seed uint64) []experiment.TaskResult {
	t.Helper()
	tasks, err := buildTasks(exp, quick, seed, "", "")
	if err != nil {
		t.Fatalf("%s: %v", exp, err)
	}
	trs, err := (&experiment.Runner{Parallel: 1}).Run(tasks)
	if err != nil {
		t.Fatalf("%s: %v", exp, err)
	}
	return trs
}

func TestBuildTasksKnownExperiments(t *testing.T) {
	// Each id must resolve to at least one result in quick mode; use
	// only the fast ones here (campaign experiments are covered by the
	// experiment package's own tests).
	for _, exp := range []string{"fig3", "fig6", "table1", "probing", "hsdir", "ablation"} {
		for _, tr := range runIDs(t, exp, true, 1) {
			if tr.Err != nil {
				t.Fatalf("%s: %v", exp, tr.Err)
			}
			if len(tr.Results) == 0 {
				t.Fatalf("%s produced no results", exp)
			}
			for _, r := range tr.Results {
				if r.Render() == "" || !strings.Contains(r.Render(), "==") {
					t.Fatalf("%s: empty render", exp)
				}
			}
		}
	}
}

func TestBuildTasksAllCoversRegistry(t *testing.T) {
	tasks, err := buildTasks("all", true, 1, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != len(experiment.IDs()) {
		t.Fatalf("all expanded to %d tasks, registry has %d", len(tasks), len(experiment.IDs()))
	}
}

func TestBuildTasksCommaList(t *testing.T) {
	tasks, err := buildTasks("fig3,table1", true, 1, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 2 || tasks[0].Experiment != "fig3" || tasks[1].Experiment != "table1" {
		t.Fatalf("unexpected tasks: %+v", tasks)
	}
}

func TestCollectFig4ProducesFourPanels(t *testing.T) {
	trs := runIDs(t, "fig4", true, 1)
	if len(trs) != 1 {
		t.Fatalf("fig4 expanded to %d tasks, want 1", len(trs))
	}
	if trs[0].Err != nil {
		t.Fatal(trs[0].Err)
	}
	if len(trs[0].Results) != 4 {
		t.Fatalf("fig4 produced %d results, want 4 (4a-4d)", len(trs[0].Results))
	}
}

func TestBuildTasksRejectsUnknown(t *testing.T) {
	if _, err := buildTasks("fig99", true, 1, "", ""); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if _, err := buildTasks("fig3,fig99", true, 1, "", ""); err == nil {
		t.Fatal("unknown experiment accepted in a list")
	}
}

func TestBuildTasksInlineChurnSpec(t *testing.T) {
	tasks, err := buildTasks("churn-repair", true, 1, `{"process":"poisson","leave":8}`, "")
	if err != nil {
		t.Fatal(err)
	}
	if tasks[0].Params.Churn == nil || tasks[0].Params.Churn.Leave != 8 {
		t.Fatalf("-churn not threaded into params: %+v", tasks[0].Params)
	}
	if _, err := buildTasks("churn-repair", true, 1, `{"process":"bogus"}`, ""); err == nil ||
		!strings.Contains(err.Error(), "unknown process") {
		t.Fatalf("bad -churn spec accepted: %v", err)
	}
	if _, err := buildTasks("churn-repair", true, 1, `not json`, ""); err == nil {
		t.Fatal("malformed -churn accepted")
	}
}

func TestBuildTasksInlineFaultsSpec(t *testing.T) {
	tasks, err := buildTasks("hsdir-outage", true, 1, "", `{"outage_frac":0.3,"outage_at_h":2,"retry_attempts":4,"retry_backoff_s":1800}`)
	if err != nil {
		t.Fatal(err)
	}
	if tasks[0].Params.Faults == nil || tasks[0].Params.Faults.OutageFrac != 0.3 {
		t.Fatalf("-faults not threaded into params: %+v", tasks[0].Params)
	}
	if _, err := buildTasks("hsdir-outage", true, 1, "", `{"outage_frac":2}`); err == nil {
		t.Fatal("bad -faults spec accepted")
	}
	if _, err := buildTasks("hsdir-outage", true, 1, "", `not json`); err == nil {
		t.Fatal("malformed -faults accepted")
	}
}
