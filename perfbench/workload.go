package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"time"

	"onionbots/internal/core"
	"onionbots/internal/ddsr"
	"onionbots/internal/experiment"
	"onionbots/internal/scenario"
	"onionbots/internal/sim"
)

// fig5N is the graph size of the graph-takedown workload.
const fig5N = 100_000

// grid is one sweep of a workload. When scenario is set, the sweep
// mirrors that library scenario: the same experiments and axes, quick
// presets, and either the scenario's own seeds (ownSeed) or seeds
// derived from the benchmark seed.
type grid struct {
	scenario string
	ownSeed  bool
	sweep    *experiment.Sweep
}

// workload is one named benchmark input: the grids it runs through a
// single experiment.Runner and the world its set-up metric constructs.
// Timed repetitions run the runner with one worker: with both of the
// 2-core reference machine's cores busy, run-to-run speed swings
// (±16% on the same tasks) exceed any useful regression bound.
type workload struct {
	name string
	why  string
	// grids builds the task list from the benchmark seed. tiny shrinks
	// it for the smoke tests.
	grids func(seed uint64, tiny bool) ([]grid, error)
	// poolCheck adds one repetition per run on a pool of one worker
	// per CPU: it must give the same result digest, and it supplies
	// the runner-pool metrics.
	poolCheck bool
	// expectEveryRep evaluates the mirrored scenarios' expectations on
	// every repetition, for workloads whose expectations hold at any
	// seed. Otherwise only grids at a scenario's own seed are checked
	// on every repetition, and the other scenarios once per run at
	// their own seed (see defaultSeedGate).
	expectEveryRep bool
	// setup constructs the world the workload's dominant experiment
	// builds before its first simulated step; setupReps is how many
	// times one run times it.
	setup     func(seed uint64) error
	setupReps int
}

var workloads = []*workload{
	{
		name:           "graph-takedown",
		why:            "Fig 5 at n=1e5: DDSR repair and graph metrics dominate; tor, crypto and the scheduler are idle",
		grids:          graphTakedownGrids,
		expectEveryRep: true,
		setup:          graphSetup,
		setupReps:      3,
	},
	{
		name:      "soap-campaign",
		why:       "SOAP clone-budget grid, PoW pricing and Fig 7: the dial/circuit/cell read path and its crypto",
		grids:     soapCampaignGrids,
		setup:     soapSetup,
		setupReps: 21,
	},
	{
		name:      "churn-faults",
		why:       "churn and fault-plane grids: identity keygen and descriptor publish; one more repetition on an nproc pool checks and measures the runner pool",
		grids:     churnFaultsGrids,
		poolCheck: true,
		setup:     hotlistSetup,
		setupReps: 21,
	},
}

func lookupWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// mirror copies a library scenario's sweep with quick presets, as
// `onionsim -scenario NAME -quick` runs it. A nil seeds keeps the
// scenario's own seed axis; otherwise seeds replace it.
func mirror(name string, seeds []uint64) (grid, error) {
	sc, ok := scenario.Lookup(name)
	if !ok {
		return grid{}, fmt.Errorf("no scenario %q", name)
	}
	s := *sc.Sweep
	s.Quick = true
	if seeds != nil {
		s.Seeds = seeds
	}
	return grid{scenario: name, ownSeed: seeds == nil, sweep: &s}, nil
}

func mirrors(seeds []uint64, names ...string) ([]grid, error) {
	var out []grid
	for _, name := range names {
		g, err := mirror(name, seeds)
		if err != nil {
			return nil, err
		}
		out = append(out, g)
	}
	return out, nil
}

// benchSeeds derives k grid seeds from the benchmark seed. They never
// equal 1, the seed every library scenario runs at, so a grid at bench
// seeds never repeats a task label of the same grid at its own seed.
func benchSeeds(seed uint64, k int) []uint64 {
	out := make([]uint64, k)
	for i := range out {
		out[i] = seed*uint64(k) + uint64(i) + 2
	}
	return out
}

// graphTakedownGrids: Fig 5 at n=10^5 on the benchmark seed. At this
// size the cost hardly depends on the seed.
func graphTakedownGrids(seed uint64, tiny bool) ([]grid, error) {
	g, err := mirror("fig5-resilience", []uint64{seed})
	if err != nil {
		return nil, err
	}
	n := fig5N
	if tiny {
		n = 2000
	}
	g.sweep.Ns = []int{n}
	return []grid{g}, nil
}

// The protocol workloads' cost varies by 15-30% from seed to seed (a
// campaign's clone count, a churn run's joins), more than a regression
// bound. So their costly grids run at the scenarios' own seed, where
// the expectations are calibrated, and the benchmark seed drives the
// grids whose cost is steady across seeds, at several seeds each.
const benchSeedCount = 4

// soapCampaignGrids: the clone-budget grid and PoW pricing at their own
// seed, and Fig 7 at the benchmark seeds.
func soapCampaignGrids(seed uint64, tiny bool) ([]grid, error) {
	names := []string{"soap-clone-budget", "pow-pricing"}
	seeds := benchSeeds(seed, benchSeedCount)
	if tiny {
		names, seeds = names[1:], seeds[:1]
	}
	gs, err := mirrors(nil, names...)
	if err != nil {
		return nil, err
	}
	fig7 := &experiment.Sweep{Name: "fig7", Experiments: []string{"fig7"}, Quick: true, Seeds: seeds}
	return append(gs, grid{sweep: fig7}), nil
}

// churnFaultsGrids: all five churn and fault-plane scenarios at their
// own seed, and the four cheap ones again at the benchmark seeds.
func churnFaultsGrids(seed uint64, tiny bool) ([]grid, error) {
	cheap := []string{"churn-repair-lambda", "takedown-replay-ramnit", "hsdir-outage-retries", "relay-outage-grind"}
	own := append([]string{"churn-hotlist-staleness"}, cheap...)
	seeds := benchSeeds(seed, benchSeedCount)
	if tiny {
		own, seeds = cheap, seeds[:1]
	}
	gs, err := mirrors(nil, own...)
	if err != nil {
		return nil, err
	}
	more, err := mirrors(seeds, cheap...)
	if err != nil {
		return nil, err
	}
	return append(gs, more...), nil
}

func graphSetup(seed uint64) error {
	const k = 10
	if _, err := ddsr.NewRegular(fig5N, k, ddsr.DefaultConfig(k), sim.NewRNG(seed)); err != nil {
		return err
	}
	_, err := ddsr.NewNormalRegular(fig5N, k, sim.NewRNG(seed))
	return err
}

// soapSetup builds and grows the botnet of the churn-soap quick preset,
// the experiment behind the clone-budget grid.
func soapSetup(seed uint64) error {
	cfg := experiment.DefaultChurnSoapConfig(true)
	return growBotNet(seed, cfg.Relays, cfg.HotlistSize, cfg.Bots, core.BotConfig{
		DMin: 2, DMax: 4, PingInterval: cfg.PingInterval, NoNInterval: cfg.NoNInterval,
	})
}

// hotlistSetup builds and grows the botnet of the churn-hotlist quick
// preset, the costliest grid of churn-faults.
func hotlistSetup(seed uint64) error {
	cfg := experiment.DefaultChurnHotlistConfig(true)
	return growBotNet(seed, cfg.Relays, cfg.HotlistSize, cfg.Bots, core.BotConfig{
		DMin: 2, DMax: 6, PingInterval: cfg.PingInterval, NoNInterval: cfg.NoNInterval, Rotation: true,
	})
}

func growBotNet(seed uint64, relays, hotlist, bots int, cfg core.BotConfig) error {
	bn, err := core.NewBotNet(seed, relays, cfg)
	if err != nil {
		return err
	}
	bn.Master.HotlistSize = hotlist
	return bn.Grow(bots, nil)
}

// execution is one run of a workload's task list.
type execution struct {
	grids   []grid
	results [][]experiment.TaskResult // per grid, in task order
	counts  experiment.Counts
	// wall covers the runner, aggregation and the result document;
	// runnerWall covers Runner.Run alone.
	wall, runnerWall time.Duration
	digest           string
}

// execute runs every grid's tasks in one Runner.Run call (the pool
// never drains between grids) and renders each grid's result document
// as `onionsim -sweep -json` would. The digest is the SHA-256 of those
// documents in grid order.
func execute(gs []grid, workers int) (*execution, error) {
	var tasks []experiment.Task
	var sizes []int
	for _, g := range gs {
		ts, err := g.sweep.Tasks()
		if err != nil {
			return nil, err
		}
		tasks = append(tasks, ts...)
		sizes = append(sizes, len(ts))
	}
	runner := &experiment.Runner{Parallel: workers}
	start := time.Now()
	trs, err := runner.Run(tasks)
	runnerWall := time.Since(start)
	if err != nil {
		return nil, err
	}
	ex := &execution{grids: gs, counts: runner.Counts(), runnerWall: runnerWall}
	h := sha256.New()
	for i, g := range gs {
		part := trs[:sizes[i]]
		trs = trs[sizes[i]:]
		ex.results = append(ex.results, part)
		doc, err := experiment.SweepJSON(g.sweep, part, g.sweep.Aggregate(part))
		if err != nil {
			return nil, err
		}
		h.Write(doc)
	}
	ex.wall = time.Since(start)
	ex.digest = hex.EncodeToString(h.Sum(nil))
	return ex, nil
}

// taskFailures lists every failed task of an execution.
func (ex *execution) taskFailures() []string {
	var out []string
	for _, part := range ex.results {
		for _, tr := range part {
			if tr.Err != nil {
				out = append(out, tr.Task.Label+": "+tr.Error)
			}
		}
	}
	return out
}

// expectationFailures evaluates the mirrored scenarios' expectation
// blocks with scenario.Evaluate, on the grids at a scenario's own seed
// or, with all set, on every mirrored grid.
func (ex *execution) expectationFailures(all bool) []string {
	var out []string
	for i, g := range ex.grids {
		if g.scenario == "" || !(g.ownSeed || all) {
			continue
		}
		sc, _ := scenario.Lookup(g.scenario)
		for _, o := range scenario.Evaluate(g.sweep, ex.results[i], sc.Expect) {
			if o.Status != scenario.StatusPass {
				out = append(out, fmt.Sprintf("%s: %s %s: %s", g.scenario, o.Status, o.Expectation.Describe(), o.Detail))
			}
		}
	}
	return out
}

// taskSeconds sums and maxes the per-task wall times.
func (ex *execution) taskSeconds() (sum, slowest float64) {
	for _, part := range ex.results {
		for _, tr := range part {
			s := tr.Elapsed.Seconds()
			sum += s
			slowest = max(slowest, s)
		}
	}
	return sum, slowest
}

// defaultSeedGate runs each scenario the workload mirrors only at
// benchmark seeds exactly as the library defines it (its own seeds,
// quick presets) and reports each expectation that does not PASS.
// Scenarios the repetitions already run at their own seed are checked
// there.
func defaultSeedGate(w *workload) ([]string, error) {
	gs, err := w.grids(1, false)
	if err != nil {
		return nil, err
	}
	checked := map[string]bool{}
	for _, g := range gs {
		if g.ownSeed {
			checked[g.scenario] = true
		}
	}
	var out []string
	for _, g := range gs {
		if g.scenario == "" || checked[g.scenario] {
			continue
		}
		checked[g.scenario] = true
		sc, _ := scenario.Lookup(g.scenario)
		rep, err := scenario.Run(sc, true, &experiment.Runner{Parallel: runtime.NumCPU()})
		if err != nil {
			return nil, err
		}
		for _, o := range rep.Outcomes {
			if o.Status != scenario.StatusPass {
				out = append(out, fmt.Sprintf("%s (default seed): %s %s: %s", g.scenario, o.Status, o.Expectation.Describe(), o.Detail))
			}
		}
		for _, tr := range rep.Tasks {
			if tr.Err != nil {
				out = append(out, fmt.Sprintf("%s (default seed): %s: %s", g.scenario, tr.Task.Label, tr.Error))
			}
		}
	}
	return out, nil
}
