package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"onionbots/internal/experiment"
)

// TestMain runs the tests from the repository root, where the benchmark
// runs and where scenario inputs such as trace files resolve.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// TestWorkloadsTiny runs a shrunken task list of every workload and
// checks that every task completes and that the result digest does not
// depend on the worker count.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			gs, err := w.grids(7, true)
			if err != nil {
				t.Fatal(err)
			}
			pool, err := execute(gs, 2)
			if err != nil {
				t.Fatal(err)
			}
			if f := pool.taskFailures(); len(f) > 0 {
				t.Fatalf("failed tasks: %v", f)
			}
			if f := pool.expectationFailures(w.expectEveryRep); len(f) > 0 {
				t.Fatalf("expectations: %v", f)
			}
			serial, err := execute(gs, 1)
			if err != nil {
				t.Fatal(err)
			}
			if serial.digest != pool.digest {
				t.Errorf("digest at 1 worker %s, at 2 workers %s", serial.digest, pool.digest)
			}
			if pool.counts.Attempts == 0 || pool.counts.Failed != 0 {
				t.Errorf("runner counts %+v", pool.counts)
			}
		})
	}
}

func TestDefaultSeedGate(t *testing.T) {
	w, err := lookupWorkload("graph-takedown")
	if err != nil {
		t.Fatal(err)
	}
	problems, err := defaultSeedGate(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) > 0 {
		t.Errorf("fig5-resilience at its default seed: %v", problems)
	}
}

// runReference runs one experiment task the way a workload does.
func runReference(t *testing.T, task experiment.Task) experiment.TaskResult {
	t.Helper()
	trs, err := (&experiment.Runner{}).Run([]experiment.Task{task})
	if err != nil {
		t.Fatal(err)
	}
	if trs[0].Err != nil {
		t.Fatal(trs[0].Err)
	}
	return trs[0]
}

func TestReplicaFig5(t *testing.T) {
	for _, p := range []experiment.Params{
		{Quick: true, Seed: 3},
		{Quick: true, Seed: 4, N: 1500},
	} {
		tr := runReference(t, experiment.Task{Label: "fig5/smoke", Experiment: "fig5", Params: p})
		p.Seed = tr.EffectiveSeed
		got, sp, err := replicaFig5(fig5Config(p))
		if err != nil {
			t.Fatal(err)
		}
		if err := matchSeries(tr.Results, got); err != nil {
			t.Errorf("params %+v: %v", p, err)
		}
		m := sp.metrics()
		if m["ddsr.nodes_removed"] <= 0 || m["ddsr.repair_edges"] <= 0 || m["ddsr.repair_s"] <= 0 {
			t.Errorf("params %+v: empty DDSR spans %v", p, m)
		}
		// A second replica at the same seed repeats the counts exactly.
		_, again, err := replicaFig5(fig5Config(p))
		if err != nil {
			t.Fatal(err)
		}
		if again.stats != sp.stats {
			t.Errorf("params %+v: DDSR counts %+v then %+v", p, sp.stats, again.stats)
		}
	}
}

func TestReplicaFig7(t *testing.T) {
	p := experiment.Params{Quick: true, Seed: 5}
	tr := runReference(t, experiment.Task{Label: "fig7/smoke", Experiment: "fig7", Params: p})
	p.Seed = tr.EffectiveSeed
	got, sp, err := replicaFig7(fig7Config(p))
	if err != nil {
		t.Fatal(err)
	}
	if err := matchSeries(tr.Results, [][]experiment.Series{got}); err != nil {
		t.Error(err)
	}
	// A second replica at the same seed repeats every count exactly.
	_, again, err := replicaFig7(fig7Config(p))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sim.events", "tor.circuits_built", "tor.cells_switched", "soap.clones_created"} {
		a, b := sp.metrics()[name], again.metrics()[name]
		if a <= 0 || a != b {
			t.Errorf("%s: %g then %g, want the same positive count", name, a, b)
		}
	}
}

// TestTraceRunTiny checks that a traced run emits every per-layer
// metric it owns and that its CPU buckets add up to the profile total.
func TestTraceRunTiny(t *testing.T) {
	w, err := lookupWorkload("soap-campaign")
	if err != nil {
		t.Fatal(err)
	}
	res, err := traceRun(w, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Problems) > 0 {
		t.Fatalf("problems: %v", res.Problems)
	}
	// The parent process adds these from the untraced repetitions.
	fromParent := map[string]bool{
		"experiment.pool_busy_frac": true, "experiment.task_s_max": true, "bench.trace_overhead_frac": true,
	}
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.name]; !ok && !fromParent[d.name] {
			t.Errorf("traced run did not emit %s", d.name)
		}
	}
	sum := 0.0
	for _, b := range bucketNames() {
		sum += res.Metrics[b+".cpu_s"]
	}
	if total := res.Metrics["profile.cpu_s"]; total <= 0 || sum < total-1e-9 || sum > total+1e-9 {
		t.Errorf("CPU buckets sum to %g, profile total %g", sum, total)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metric and
// workload tables here.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, perfbench %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, perfbench %d", kind, len(got), len(want))
		}
		for i, d := range want {
			better := "higher"
			if d.lowerBetter {
				better = "lower"
			}
			m := got[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != better || (m.Bound != nil) != bounded {
				t.Errorf("%s %d: BENCHMARK.json %+v, perfbench %+v", kind, i, m, d)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	if strings.Join(b.Paths, ",") != "perfbench" || strings.Join(b.Command, " ") != "bash perfbench/run.sh" {
		t.Errorf("paths %v, command %v", b.Paths, b.Command)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "soap-campaign", "--trace", "2"},
		{"--workload", "soap-campaign", "--seconds", "0"},
		{"compare", "only-one"},
	} {
		var out bytes.Buffer
		if code, err := dispatch(args, &out); code != 2 || err == nil {
			t.Errorf("%q: code %d, err %v; want a usage error", args, code, err)
		}
	}
}
