// Command perfbench is the repository's benchmark. It runs a named
// workload through experiment.Runner, the path `onionsim -sweep` and
// `onionsim -scenario` take, checks the outputs, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) by
// name and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"wall_s": {"value": 12.4, "unit": "s"}, ...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload soap-campaign --seed 1 --seconds 26 --trace 0
//	bash perfbench/run.sh compare base-runs/ new-runs/
//	bash perfbench/run.sh split traced-runs/
//
// Every timed repetition runs in a fresh child process, so peak RSS is
// the kernel's high-water mark of that repetition alone. The process
// exits 1 when the correctness gate fails and 2 on a usage or
// environment error.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	code, err := dispatch(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	os.Exit(code)
}

func dispatch(args []string, stdout io.Writer) (int, error) {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return cmdCompare(args[1:], stdout)
		case "split":
			return cmdSplit(args[1:], stdout)
		case "child-rep", "child-setup", "child-trace":
			return cmdChild(args[0], args[1:], stdout)
		}
	}
	return cmdRun(args, stdout)
}

// runBudget bounds one whole benchmark run, children included.
const runBudget = 170 * time.Second

func cmdRun(args []string, stdout io.Writer) (int, error) {
	fsys := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fsys.String("workload", "", "workload name: graph-takedown, soap-campaign or churn-faults")
	seed := fsys.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fsys.Int("seconds", 26, "keep starting timed repetitions until this many seconds have been measured")
	trace := fsys.Int("trace", 0, "1 adds a traced run and prints the per-layer metrics instead of the end-to-end ones")
	if err := fsys.Parse(args); err != nil {
		return 2, err
	}
	if fsys.NArg() > 0 {
		return 2, fmt.Errorf("unexpected arguments %q", fsys.Args())
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return 2, err
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return 2, errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	rec, err := measure(ctx, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		return 2, err
	}
	if err := rec.print(stdout); err != nil {
		return 2, err
	}
	if !rec.Correct {
		return 1, errors.New("correctness gate failed: " + strings.Join(rec.Problems, "; "))
	}
	return 0, nil
}

// repResult is what one repetition reports. The child fills the
// timings it takes itself; the parent adds CPU time and peak RSS from
// the child's rusage.
type repResult struct {
	WallS       float64  `json:"wall_s"`
	RunnerWallS float64  `json:"runner_wall_s"`
	Workers     int      `json:"workers"`
	Attempted   int64    `json:"attempted"`
	Failed      int64    `json:"failed"`
	SumTaskS    float64  `json:"sum_task_s"`
	MaxTaskS    float64  `json:"max_task_s"`
	Digest      string   `json:"digest"`
	Problems    []string `json:"problems,omitempty"`
	CPUS        float64  `json:"cpu_s"`
	PeakRSSMiB  float64  `json:"peak_rss_mib"`
}

// record is one benchmark run in full. print writes it as one JSON line
// before the result line, so compare and split can read saved output.
type record struct {
	Workload   string      `json:"workload"`
	Seed       uint64      `json:"seed"`
	Seconds    float64     `json:"seconds"`
	Trace      bool        `json:"trace"`
	Provenance provenance  `json:"provenance"`
	Reps       []repResult `json:"reps"`
	SetupS     []float64   `json:"setup_s"`
	// Pool is the repetition on an nproc pool, for workloads with a
	// pool check.
	Pool         *repResult         `json:"pool,omitempty"`
	TracedWallS  float64            `json:"traced_wall_s,omitempty"`
	TaskFailFrac float64            `json:"task_fail_frac"`
	Correct      bool               `json:"correct"`
	Attempted    int64              `json:"attempted"`
	Failed       int64              `json:"failed"`
	Problems     []string           `json:"problems,omitempty"`
	Metrics      map[string]float64 `json:"metrics"`
}

// measure runs one benchmark: the default-seed expectation gate, the
// set-up timing, timed one-worker repetitions until the measuring time
// is used, the pool repetition and, when tracing, one traced
// repetition. Every repetition runs in a fresh child process.
func measure(ctx context.Context, w *workload, seed uint64, seconds time.Duration, trace bool) (*record, error) {
	rec := &record{
		Workload: w.name, Seed: seed, Seconds: seconds.Seconds(), Trace: trace,
		Provenance: stamp(), Metrics: map[string]float64{},
	}
	gate, err := defaultSeedGate(w)
	if err != nil {
		return nil, err
	}
	rec.Problems = append(rec.Problems, gate...)

	var setup struct {
		SetupS []float64 `json:"setup_s"`
	}
	if _, err := child(ctx, &setup, "child-setup", "--workload", w.name, "--seed", fmt.Sprint(seed)); err != nil {
		return nil, err
	}
	rec.SetupS = setup.SetupS

	start := time.Now()
	for len(rec.Reps) == 0 || time.Since(start) < seconds {
		rep, err := runRep(ctx, w, seed, 1)
		if err != nil {
			return nil, err
		}
		rec.Reps = append(rec.Reps, rep)
	}
	if w.poolCheck {
		rep, err := runRep(ctx, w, seed, runtime.NumCPU())
		if err != nil {
			return nil, err
		}
		rec.Pool = &rep
		rec.Problems = append(rec.Problems, rep.Problems...)
		if rep.Digest != rec.Reps[0].Digest {
			rec.Problems = append(rec.Problems, fmt.Sprintf("result digest on a %d-worker pool differs from 1 worker's", rep.Workers))
		}
	}

	var walls, cpus, rss []float64
	for i, rep := range rec.Reps {
		walls = append(walls, rep.WallS)
		cpus = append(cpus, rep.CPUS)
		rss = append(rss, rep.PeakRSSMiB)
		rec.Attempted += rep.Attempted
		failed := rep.Failed
		if len(rep.Problems) > 0 {
			failed = rep.Attempted
			rec.Problems = append(rec.Problems, rep.Problems...)
		}
		rec.Failed += failed
		if rep.Digest != rec.Reps[0].Digest {
			rec.Problems = append(rec.Problems, fmt.Sprintf("result digest of repetition %d differs from repetition 0", i))
		}
	}
	rec.TaskFailFrac = float64(rec.Failed) / float64(rec.Attempted)

	if !trace {
		rec.Metrics["wall_s"] = median(walls)
		rec.Metrics["setup_s"] = median(rec.SetupS)
		rec.Metrics["cpu_s"] = median(cpus)
		rec.Metrics["peak_rss_mib"] = median(rss)
	} else {
		var tr traceResult
		if _, err := child(ctx, &tr, "child-trace", "--workload", w.name, "--seed", fmt.Sprint(seed)); err != nil {
			return nil, err
		}
		rec.Problems = append(rec.Problems, tr.Problems...)
		if tr.Digest != rec.Reps[0].Digest {
			rec.Problems = append(rec.Problems, "traced result digest differs from the untraced one")
		}
		rec.TracedWallS = tr.WallS
		for k, v := range tr.Metrics {
			rec.Metrics[k] = v
		}
		pool := rec.Reps
		if rec.Pool != nil {
			pool = []repResult{*rec.Pool}
		}
		var busy, slowest []float64
		for _, rep := range pool {
			busy = append(busy, rep.SumTaskS/(float64(rep.Workers)*rep.RunnerWallS))
			slowest = append(slowest, rep.MaxTaskS)
		}
		rec.Metrics["experiment.pool_busy_frac"] = median(busy)
		rec.Metrics["experiment.task_s_max"] = median(slowest)
		rec.Metrics["bench.trace_overhead_frac"] = tr.WallS/median(walls) - 1
	}
	rec.Correct = len(rec.Problems) == 0
	return rec, nil
}

// runRep runs one repetition on a pool of the given size in a fresh
// child process.
func runRep(ctx context.Context, w *workload, seed uint64, workers int) (repResult, error) {
	var rep repResult
	ps, err := child(ctx, &rep, "child-rep", "--workload", w.name, "--seed", fmt.Sprint(seed), "--workers", fmt.Sprint(workers))
	if err != nil {
		return rep, err
	}
	rep.CPUS = (ps.UserTime() + ps.SystemTime()).Seconds()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		rep.PeakRSSMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return rep, nil
}

// child runs this binary in one of its child modes, waits for it, and
// decodes the JSON it prints into out.
func child(ctx context.Context, out any, args ...string) (*os.ProcessState, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", args[0], err)
	}
	if err := json.Unmarshal(buf.Bytes(), out); err != nil {
		return nil, fmt.Errorf("%s: bad output: %w", args[0], err)
	}
	return cmd.ProcessState, nil
}

func cmdChild(mode string, args []string, stdout io.Writer) (int, error) {
	fsys := flag.NewFlagSet(mode, flag.ContinueOnError)
	name := fsys.String("workload", "", "workload name")
	seed := fsys.Uint64("seed", 1, "workload seed")
	workers := fsys.Int("workers", 1, "runner pool size")
	if err := fsys.Parse(args); err != nil {
		return 2, err
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return 2, err
	}
	var out any
	switch mode {
	case "child-rep":
		out, err = repOnce(w, *seed, *workers)
	case "child-setup":
		out, err = setupTimes(w, *seed)
	case "child-trace":
		out, err = traceRun(w, *seed, false)
	}
	if err != nil {
		return 2, err
	}
	return 0, json.NewEncoder(stdout).Encode(out)
}

// repOnce runs the workload once and checks its outputs.
func repOnce(w *workload, seed uint64, workers int) (*repResult, error) {
	gs, err := w.grids(seed, false)
	if err != nil {
		return nil, err
	}
	ex, err := execute(gs, workers)
	if err != nil {
		return nil, err
	}
	sum, slowest := ex.taskSeconds()
	rep := &repResult{
		WallS: ex.wall.Seconds(), RunnerWallS: ex.runnerWall.Seconds(), Workers: workers,
		Attempted: ex.counts.Attempts, Failed: ex.counts.Failed,
		SumTaskS: sum, MaxTaskS: slowest, Digest: ex.digest,
	}
	rep.Problems = append(rep.Problems, ex.taskFailures()...)
	rep.Problems = append(rep.Problems, ex.expectationFailures(w.expectEveryRep)...)
	return rep, nil
}

// setupTimes times the workload's world construction setupReps times,
// each on its own seed derived from the benchmark seed, so the median
// does not hang on how one world happened to grow.
func setupTimes(w *workload, seed uint64) (any, error) {
	var out struct {
		SetupS []float64 `json:"setup_s"`
	}
	for i := 0; i < w.setupReps; i++ {
		start := time.Now()
		if err := w.setup(seed*uint64(w.setupReps) + uint64(i)); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		out.SetupS = append(out.SetupS, time.Since(start).Seconds())
	}
	return out, nil
}

// print writes one "name value unit" line per metric, the full record
// as one JSON line, and the result line.
func (rec *record) print(w io.Writer) error {
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v reps=%d correct=%v task_fail_frac=%g\n",
		rec.Workload, rec.Seed, rec.Trace, len(rec.Reps), rec.Correct, rec.TaskFailFrac)
	for _, d := range defs {
		v, ok := rec.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = value{v, d.unit}
		fmt.Fprintf(w, "%-28s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, p := range rec.Problems {
		fmt.Fprintf(w, "problem: %s\n", p)
	}
	line, err := json.Marshal(map[string]*record{"record": rec})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	result, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", result)
	return err
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
