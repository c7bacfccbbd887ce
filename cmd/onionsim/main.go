// Command onionsim regenerates the OnionBots paper's tables and figures
// from this repository's implementations, and sweeps them over
// parameter grids.
//
// Usage:
//
//	onionsim -list
//	onionsim -exp fig4 [-quick] [-seed 1] [-parallel 8] [-csv dir] [-json]
//	onionsim -exp all -quick
//	onionsim -exp churn-repair -quick -churn '{"process":"poisson","leave":16}'
//	onionsim -exp hsdir-outage -quick -faults '{"outage_frac":0.3,"outage_at_h":2,"outage_targeted":true,"retry_attempts":4,"retry_backoff_s":1800}'
//	onionsim -sweep examples/sweep/fig6-grid.json -parallel 8 -json
//	onionsim -sweep examples/sweep/hsdir-outage-grid.json -parallel 8
//	onionsim -sweep examples/sweep/fig5-fig6-quick.json -cpuprofile cpu.pprof -memprofile mem.pprof
//	onionsim -scenario all -quick
//	onionsim -scenario churn-repair-lambda -quick -json
//	onionsim -serve :8080 -jobs-dir /var/lib/onionsim/jobs
//
// -exp takes a registered experiment ID, a comma-separated list, or
// "all"; -list prints the registry (experiments and scenarios); -churn
// hands every -exp task an inline churn spec (see internal/churn and
// docs/EXPERIMENTS.md), and -faults does the same with an
// infrastructure fault-plane spec (see internal/faults). -scenario runs
// named questions from the internal/scenario library — each a sweep
// plus a machine-checked expectation block — and exits non-zero if any
// expectation fails, which is what `make scenario-smoke` gates CI on.
// -serve runs the sweep engine as a long-lived HTTP service instead of
// a one-shot batch: sweep specs are submitted as jobs, every completed
// grid point is checkpointed to an fsync'd journal under -jobs-dir, and
// a killed or drained server resumes unfinished jobs on restart with
// byte-identical output (see internal/serve and docs/ARCHITECTURE.md).
// Experiments fan out across a
// worker pool (-parallel, default one worker per CPU); output is
// byte-identical at any parallelism because every task runs on its own
// RNG substream derived from (seed, task label). The one exception:
// full-mode (non-quick) probing measures this machine's live
// key-generation rate, so its rate-derived cells vary run to run and
// say so. Progress goes to stderr, results to stdout (ASCII tables, or
// one JSON document with -json); -csv additionally writes each result
// to a file. Full runs use the paper's parameters (n=5000/15000
// graphs, 1000-15000 sweeps) and can take minutes.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"onionbots/internal/churn"
	"onionbots/internal/experiment"
	"onionbots/internal/faults"
	"onionbots/internal/scenario"
	"onionbots/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "onionsim: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp       = flag.String("exp", "all", `experiment id, comma-separated list, or "all" (see -list)`)
		quick     = flag.Bool("quick", false, "use scaled-down parameters")
		csvDir    = flag.String("csv", "", "also write each result as CSV into this directory")
		seed      = flag.Uint64("seed", 1, "root seed; every task derives its own substream from it")
		churnStr  = flag.String("churn", "", `inline churn spec applied to -exp tasks, e.g. '{"process":"poisson","leave":8}'`)
		faultsStr = flag.String("faults", "", `inline fault-plane spec applied to -exp tasks, e.g. '{"outage_frac":0.3,"outage_at_h":2,"retry_attempts":4,"retry_backoff_s":1800}'`)
		taskTO    = flag.Duration("task-timeout", 0, "per-task wall-clock timeout (0 = off; a timed-out task is reported as failed)")
		parallel  = flag.Int("parallel", runtime.NumCPU(), "worker count (output is identical at any value; see package doc for the full-mode probing exception)")
		sweep     = flag.String("sweep", "", "run a JSON scenario-sweep spec instead of -exp")
		serveAddr = flag.String("serve", "", `run as a long-lived sweep server on this address (e.g. ":8080") instead of -exp; jobs persist under -jobs-dir and resume across restarts`)
		jobsDir   = flag.String("jobs-dir", "jobs", "server mode: persistence root for job specs, checkpoint journals, and results")
		retries   = flag.Int("task-retries", 2, "server mode: per-task retries for panicked or timed-out grid points")
		scen      = flag.String("scenario", "", `run named library scenarios instead of -exp: a name, a comma-separated list, or "all"; exits non-zero if any expectation fails`)
		jsonOut   = flag.Bool("json", false, "emit one machine-readable JSON document on stdout")
		list      = flag.Bool("list", false, "list registered experiments and exit")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer func() {
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "onionsim: memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	if *list {
		for _, id := range experiment.IDs() {
			def, _ := experiment.Lookup(id)
			fmt.Printf("%-10s %s\n", id, def.Title)
		}
		fmt.Println()
		for _, name := range scenario.Names() {
			sc, _ := scenario.Lookup(name)
			fmt.Printf("scenario:%-25s %s\n", name, sc.Question)
		}
		return nil
	}

	if *serveAddr != "" {
		// Server mode owns job intake: specs arrive over HTTP, so every
		// batch-shaping flag is a mistake worth rejecting loudly.
		var conflict []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "exp", "quick", "seed", "churn", "faults", "sweep", "scenario", "json", "csv":
				conflict = append(conflict, "-"+f.Name)
			}
		})
		if len(conflict) > 0 {
			return fmt.Errorf("-serve takes sweep specs over HTTP (POST /jobs); drop %s", strings.Join(conflict, ", "))
		}
		return runServe(*serveAddr, *jobsDir, *parallel, *taskTO, *retries)
	}
	var serveOnly []string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "jobs-dir", "task-retries":
			serveOnly = append(serveOnly, "-"+f.Name)
		}
	})
	if len(serveOnly) > 0 {
		return fmt.Errorf("%s only apply to -serve", strings.Join(serveOnly, ", "))
	}

	runner := &experiment.Runner{
		Parallel:    *parallel,
		TaskTimeout: *taskTO,
		Progress: func(done, total int, tr experiment.TaskResult) {
			status := "ok"
			if tr.Err != nil {
				status = "FAILED: " + tr.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s %s (%s)\n",
				done, total, tr.Task.Label, status, tr.Elapsed.Round(time.Millisecond))
		},
	}

	if *sweep != "" && *scen != "" {
		return fmt.Errorf("-sweep and -scenario are mutually exclusive")
	}
	if *sweep != "" {
		// A sweep spec carries its own experiments, presets, and seed
		// grid; reject flag combinations that would otherwise be
		// silently ignored.
		var conflict []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "exp", "quick", "seed", "churn", "faults":
				conflict = append(conflict, "-"+f.Name)
			}
		})
		if len(conflict) > 0 {
			return fmt.Errorf("-sweep takes experiments, quick, seeds, churn, and faults from the spec file; drop %s",
				strings.Join(conflict, ", "))
		}
		return runSweep(runner, *sweep, *jsonOut, *csvDir)
	}
	if *scen != "" {
		// Scenarios carry their own sweeps and seeds; only -quick,
		// -parallel, -task-timeout, -json, and -csv compose with them.
		var conflict []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "exp", "seed", "churn", "faults":
				conflict = append(conflict, "-"+f.Name)
			}
		})
		if len(conflict) > 0 {
			return fmt.Errorf("-scenario takes experiments, seeds, churn, and faults from the library; drop %s",
				strings.Join(conflict, ", "))
		}
		return runScenarios(runner, *scen, *quick, *jsonOut, *csvDir)
	}

	tasks, err := buildTasks(*exp, *quick, *seed, *churnStr, *faultsStr)
	if err != nil {
		return err
	}
	taskResults, err := runner.Run(tasks)
	printRunSummary(runner)
	if err != nil {
		return err
	}
	var results []*experiment.Result
	for _, tr := range taskResults {
		if tr.Err != nil {
			return fmt.Errorf("%s: %w", tr.Task.Label, tr.Err)
		}
		results = append(results, tr.Results...)
	}
	for _, r := range results {
		if err := writeCSV(*csvDir, r.ID, r); err != nil {
			return err
		}
	}
	if *jsonOut {
		doc, err := experiment.ResultsJSON(results)
		if err != nil {
			return err
		}
		fmt.Println(string(doc))
		return nil
	}
	for _, r := range results {
		fmt.Println(r.Render())
	}
	return nil
}

// buildTasks resolves -exp into one task per selected experiment. The
// task label is the experiment ID, so `-exp fig6 -seed 1` and
// `-exp all -seed 1` run fig6 on the same substream. A non-empty
// churnStr is parsed as an inline churn.Spec and handed to every task
// (experiments without a churn phase ignore it); faultsStr does the
// same with an inline faults.Spec for the fault-plane experiments.
func buildTasks(exp string, quick bool, seed uint64, churnStr, faultsStr string) ([]experiment.Task, error) {
	ids := experiment.IDs()
	if exp != "all" {
		ids = strings.Split(exp, ",")
		for _, id := range ids {
			if _, ok := experiment.Lookup(id); !ok {
				return nil, fmt.Errorf("unknown experiment %q", id)
			}
		}
	}
	var cspec *churn.Spec
	if churnStr != "" {
		spec, err := churn.ParseSpec([]byte(churnStr))
		if err != nil {
			return nil, fmt.Errorf("-churn: %w", err)
		}
		cspec = &spec
	}
	var fspec *faults.Spec
	if faultsStr != "" {
		spec, err := faults.ParseSpec([]byte(faultsStr))
		if err != nil {
			return nil, fmt.Errorf("-faults: %w", err)
		}
		fspec = &spec
	}
	tasks := make([]experiment.Task, 0, len(ids))
	for _, id := range ids {
		tasks = append(tasks, experiment.Task{
			Label:      id,
			Experiment: id,
			Params:     experiment.Params{Quick: quick, Seed: seed, Churn: cspec, Faults: fspec},
		})
	}
	return tasks, nil
}

func runSweep(runner *experiment.Runner, path string, jsonOut bool, csvDir string) error {
	spec, err := experiment.LoadSweep(path)
	if err != nil {
		return err
	}
	tasks, err := spec.Tasks()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sweep %s: %d tasks\n", spec.Name, len(tasks))
	taskResults, err := runner.Run(tasks)
	printRunSummary(runner)
	if err != nil {
		return err
	}
	aggregate := spec.Aggregate(taskResults)
	if jsonOut {
		doc, err := experiment.SweepJSON(spec, taskResults, aggregate)
		if err != nil {
			return err
		}
		fmt.Println(string(doc))
	} else {
		fmt.Println(aggregate.Render())
	}
	if csvDir != "" {
		if err := writeCSV(csvDir, aggregate.ID, aggregate); err != nil {
			return err
		}
		for _, tr := range taskResults {
			for _, r := range tr.Results {
				name := strings.NewReplacer("/", "_", "=", "-").Replace(tr.Task.Label) + "-" + r.ID
				if err := writeCSV(csvDir, name, r); err != nil {
					return err
				}
			}
		}
	}
	for _, tr := range taskResults {
		if tr.Err != nil {
			return fmt.Errorf("%d of %d sweep tasks failed (first: %s: %v)",
				countFailed(taskResults), len(taskResults), tr.Task.Label, tr.Err)
		}
	}
	return nil
}

// runScenarios resolves a -scenario selector and runs each named
// scenario: the sweep runs on the shared worker pool, the aggregate and
// the evaluated expectation table go to stdout, and any FAIL/ERROR
// outcome turns into a non-zero exit after all scenarios have reported
// — CI sees every broken shape, not just the first.
func runScenarios(runner *experiment.Runner, selector string, quick, jsonOut bool, csvDir string) error {
	names := scenario.Names()
	if selector != "all" {
		names = strings.Split(selector, ",")
	}
	var results []*experiment.Result
	var failed []string
	for _, name := range names {
		sc, ok := scenario.Lookup(name)
		if !ok {
			return fmt.Errorf("unknown scenario %q (have %s)", name, strings.Join(scenario.Names(), ", "))
		}
		fmt.Fprintf(os.Stderr, "scenario %s: %s\n", sc.Name, sc.Question)
		rep, err := scenario.Run(sc, quick, runner)
		if err != nil {
			return err
		}
		if !rep.Passed() {
			failed = append(failed, sc.Name)
		}
		results = append(results, rep.Aggregate, rep.Result())
	}
	if jsonOut {
		doc, err := experiment.ResultsJSON(results)
		if err != nil {
			return err
		}
		fmt.Println(string(doc))
	} else {
		for _, r := range results {
			fmt.Println(r.Render())
		}
	}
	for _, r := range results {
		if err := writeCSV(csvDir, r.ID, r); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d scenario(s) failed expectations: %s", len(failed), strings.Join(failed, ", "))
	}
	printRunSummary(runner)
	return nil
}

// runServe hands the process to the simulation service: SIGTERM/SIGINT
// cancel the context, Run drains in-flight tasks into the checkpoint
// journals, and the nil return exits 0 so supervisors read the drain as
// a clean stop. Unfinished jobs resume on the next start.
func runServe(addr, jobsDir string, parallel int, taskTimeout time.Duration, taskRetries int) error {
	if err := os.MkdirAll(jobsDir, 0o755); err != nil {
		return fmt.Errorf("jobs dir: %w", err)
	}
	s, err := serve.New(serve.Config{
		Addr:        addr,
		JobsDir:     jobsDir,
		Parallel:    parallel,
		TaskTimeout: taskTimeout,
		TaskRetries: taskRetries,
	})
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	return s.Run(ctx)
}

// printRunSummary surfaces the runner's retry/abandonment accounting on
// stderr whenever any task needed more than one attempt — flaky or
// timed-out grid points stay visible in batch mode, not just in the
// server's /metrics.
func printRunSummary(runner *experiment.Runner) {
	c := runner.Counts()
	if c.Retried == 0 && c.Abandoned == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "run summary: %d attempts across %d tasks (%d retried, %d abandoned by timeout, %d failed)\n",
		c.Attempts, c.Completed, c.Retried, c.Abandoned, c.Failed)
}

func countFailed(trs []experiment.TaskResult) int {
	n := 0
	for _, tr := range trs {
		if tr.Err != nil {
			n++
		}
	}
	return n
}

// writeCSV writes one result to dir/name.csv; an empty dir disables
// it. The notice goes to stderr so stdout stays pure result data
// (ASCII tables or the single -json document).
func writeCSV(dir, name string, r *experiment.Result) error {
	if dir == "" {
		return nil
	}
	path := filepath.Join(dir, name+".csv")
	if err := os.WriteFile(path, []byte(r.CSV()), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}
