package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"onionbots/internal/churn"
	"onionbots/internal/faults"
	"onionbots/internal/jsonx"
	"onionbots/internal/soap"
	"onionbots/internal/stats"
)

// Sweep is a scenario-sweep specification: one or more registered
// experiments crossed with parameter grids. The zero value of every
// axis means "keep the experiment's preset"; listing values fans the
// experiment out over them. A sweep with E experiments, |ns| sizes,
// |ks| degrees, |fracs| fractions, |seeds| seeds and T trials expands
// to E*|ns|*|ks|*|fracs|*|seeds|*T tasks, each with its own RNG
// substream derived from (seed, task label).
//
// Sweeps are written as JSON files (see examples/sweep):
//
//	{
//	  "name": "fig6-grid",
//	  "experiments": ["fig6"],
//	  "quick": true,
//	  "ns": [800, 1000, 1200],
//	  "seeds": [1, 2, 3]
//	}
type Sweep struct {
	// Name labels the sweep; the aggregate result's ID is "sweep-"+Name.
	Name string `json:"name"`
	// Experiments are the registry IDs to fan out.
	Experiments []string `json:"experiments"`
	// Quick selects the scaled-down presets for every task.
	Quick bool `json:"quick,omitempty"`
	// Ns, Ks, Fracs and Seeds are the grid axes (empty = preset).
	Ns    []int     `json:"ns,omitempty"`
	Ks    []int     `json:"ks,omitempty"`
	Fracs []float64 `json:"fracs,omitempty"`
	Seeds []uint64  `json:"seeds,omitempty"`
	// Churn sweeps dynamic-membership scenarios, one task per listed
	// spec, exactly like the static axes — the lever behind questions
	// such as "how does DDSR repair degrade under Poisson leave at λ?".
	Churn []churn.Spec `json:"churn,omitempty"`
	// Soap sweeps mitigation-campaign configurations the same way —
	// crossed with Churn it answers "does a clone budget that contains
	// a static population still contain a moving one?".
	Soap []soap.Spec `json:"soap,omitempty"`
	// Faults sweeps infrastructure fault planes (relay crashes, HSDir
	// outage waves, intro failures) bundled with client retry budgets —
	// one axis crossing failure intensity against resilience, which is
	// how "does a retry budget buy back C&C reachability under a 30%
	// directory outage?" becomes a grid question.
	Faults []faults.Spec `json:"faults,omitempty"`
	// Trials replicates every grid point this many times (default 1).
	// Replicas share Params but get distinct labels, hence distinct RNG
	// substreams — the cheap way to average away seed noise.
	Trials int `json:"trials,omitempty"`
	// Thresholds extract answers from the aggregated grid: each one
	// scans a swept axis for the first value where a series statistic
	// crosses a bound ("λ at first partition"). See Threshold.
	Thresholds []Threshold `json:"thresholds,omitempty"`
}

// ParseSweep decodes and validates a JSON sweep spec. Unknown fields
// are rejected so a typo ("seed" for "seeds") cannot silently collapse
// a grid axis.
func ParseSweep(data []byte) (*Sweep, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Sweep
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("parse sweep: %w", jsonx.Describe(data, err))
	}
	if len(s.Experiments) == 0 {
		return nil, fmt.Errorf("parse sweep: no experiments listed")
	}
	if s.Trials < 0 {
		return nil, fmt.Errorf("parse sweep: negative trials %d", s.Trials)
	}
	seen := make(map[string]struct{}, len(s.Churn))
	for i, spec := range s.Churn {
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("parse sweep: churn[%d]: %w", i, err)
		}
		// Distinct specs must produce distinct labels: the label is the
		// task's (and substream's) identity on this axis.
		if _, dup := seen[spec.Label()]; dup {
			return nil, fmt.Errorf("parse sweep: duplicate churn spec %q", spec.Label())
		}
		seen[spec.Label()] = struct{}{}
	}
	seenSoap := make(map[string]struct{}, len(s.Soap))
	for i, spec := range s.Soap {
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("parse sweep: soap[%d]: %w", i, err)
		}
		if _, dup := seenSoap[spec.Label()]; dup {
			return nil, fmt.Errorf("parse sweep: duplicate soap spec %q", spec.Label())
		}
		seenSoap[spec.Label()] = struct{}{}
	}
	seenFaults := make(map[string]struct{}, len(s.Faults))
	for i, spec := range s.Faults {
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("parse sweep: faults[%d]: %w", i, err)
		}
		if _, dup := seenFaults[spec.Label()]; dup {
			return nil, fmt.Errorf("parse sweep: duplicate faults spec %q", spec.Label())
		}
		seenFaults[spec.Label()] = struct{}{}
	}
	for i, th := range s.Thresholds {
		if err := th.validate(&s); err != nil {
			return nil, fmt.Errorf("parse sweep: thresholds[%d]: %w", i, err)
		}
	}
	if s.Name == "" {
		s.Name = strings.Join(s.Experiments, "+")
	}
	return &s, nil
}

// LoadSweep reads and parses a sweep spec file.
func LoadSweep(path string) (*Sweep, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := ParseSweep(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Tasks expands the sweep into its full task grid, in deterministic
// order (experiments × ns × ks × fracs × churn × soap × faults ×
// seeds × trials). Every experiment ID is checked against the registry
// up front so a bad spec fails before any work starts.
func (s *Sweep) Tasks() ([]Task, error) {
	for _, id := range s.Experiments {
		if _, ok := Lookup(id); !ok {
			return nil, fmt.Errorf("sweep %s: unknown experiment %q", s.Name, id)
		}
	}
	ns, nSet := axisInts(s.Ns)
	ks, kSet := axisInts(s.Ks)
	fracs, fracSet := axisFloats(s.Fracs)
	churns, churnSet := axisChurn(s.Churn)
	soaps, soapSet := axisSoap(s.Soap)
	faultSpecs, faultsSet := axisFaults(s.Faults)
	seeds, seedSet := axisSeeds(s.Seeds)
	trials := s.Trials
	if trials < 1 {
		trials = 1
	}

	var tasks []Task
	for _, id := range s.Experiments {
		for _, n := range ns {
			for _, k := range ks {
				for _, frac := range fracs {
					for ci := range churns {
						for si := range soaps {
							for fi := range faultSpecs {
								for _, seed := range seeds {
									for trial := 0; trial < trials; trial++ {
										var label strings.Builder
										label.WriteString(id)
										if nSet {
											fmt.Fprintf(&label, "/n=%d", n)
										}
										if kSet {
											fmt.Fprintf(&label, "/k=%d", k)
										}
										if fracSet {
											fmt.Fprintf(&label, "/frac=%g", frac)
										}
										var cspec *churn.Spec
										if churnSet {
											cspec = &churns[ci]
											fmt.Fprintf(&label, "/churn=%s", cspec.Label())
										}
										var sspec *soap.Spec
										if soapSet {
											sspec = &soaps[si]
											fmt.Fprintf(&label, "/soap=%s", sspec.Label())
										}
										var fspec *faults.Spec
										if faultsSet {
											fspec = &faultSpecs[fi]
											fmt.Fprintf(&label, "/faults=%s", fspec.Label())
										}
										if seedSet {
											fmt.Fprintf(&label, "/seed=%d", seed)
										}
										if s.Trials > 1 {
											fmt.Fprintf(&label, "/trial=%d", trial)
										}
										tasks = append(tasks, Task{
											Label:      label.String(),
											Experiment: id,
											Params: Params{
												Quick: s.Quick, Seed: seed,
												N: n, K: k, Frac: frac,
												Churn:  cspec,
												Soap:   sspec,
												Faults: fspec,
											},
										})
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return tasks, nil
}

// axisInts maps an absent axis to the single "keep preset" value.
func axisInts(xs []int) ([]int, bool) {
	if len(xs) == 0 {
		return []int{0}, false
	}
	return xs, true
}

func axisFloats(xs []float64) ([]float64, bool) {
	if len(xs) == 0 {
		return []float64{0}, false
	}
	return xs, true
}

func axisSeeds(xs []uint64) ([]uint64, bool) {
	if len(xs) == 0 {
		return []uint64{1}, false
	}
	return xs, true
}

// axisChurn maps an absent churn axis to a single "keep preset" slot
// (represented as a nil *Spec downstream).
func axisChurn(xs []churn.Spec) ([]churn.Spec, bool) {
	if len(xs) == 0 {
		return make([]churn.Spec, 1), false
	}
	return xs, true
}

// axisSoap is axisChurn for the mitigation-campaign axis.
func axisSoap(xs []soap.Spec) ([]soap.Spec, bool) {
	if len(xs) == 0 {
		return make([]soap.Spec, 1), false
	}
	return xs, true
}

// axisFaults is axisChurn for the infrastructure-fault axis.
func axisFaults(xs []faults.Spec) ([]faults.Spec, bool) {
	if len(xs) == 0 {
		return make([]faults.Spec, 1), false
	}
	return xs, true
}

// Aggregate folds a sweep's task results into one table-shaped Result:
// a row per produced series (first/last/min/max of y) and a row per
// table-shaped sub-result, so a whole grid reads as a single table and
// exports through the usual Render/CSV/JSON paths. Failed tasks appear
// as error rows rather than vanishing.
//
// On top of the per-task rows, the aggregate carries cross-task
// statistics: when the spec replicates grid points (Trials > 1), every
// (grid point, result, series) gets a "(mean±sd)" row with the mean,
// sample standard deviation, and Student-t 95% confidence half-width
// (sized from the trial count) of the series' last value over the
// trials; when the spec sweeps several seeds, every seed-free grid
// point additionally gets a "(mean±sd seeds)" row pooling all
// seed × trial replicates; and every Threshold in the spec contributes
// one "(threshold)" row per combination of the non-scanned axes,
// reporting where the replicate-mean crosses the bound — linearly
// interpolated on numeric axes ("λ≈12.4"), the first crossed label on
// categorical ones. A grid therefore answers its question — "mean
// recovery at each λ, and where does it break?" — without
// post-processing.
func (s *Sweep) Aggregate(trs []TaskResult) *Result {
	res := &Result{
		ID:    "sweep-" + s.Name,
		Title: fmt.Sprintf("Scenario sweep %s: %s over %d tasks", s.Name, strings.Join(s.Experiments, ","), len(trs)),
		Header: []string{"task", "result", "series", "points",
			"y.first", "y.last", "y.min", "y.max", "last.mean", "last.stddev", "last.ci95"},
	}
	failed := 0
	for _, tr := range trs {
		if tr.Err != nil {
			failed++
			res.Rows = append(res.Rows, []string{
				tr.Task.Label, "error: " + tr.Err.Error(), "-", "-", "-", "-", "-", "-", "-", "-", "-",
			})
			continue
		}
		for _, r := range tr.Results {
			for _, series := range r.Series {
				first, last, min, max := seriesStats(series)
				res.Rows = append(res.Rows, []string{
					tr.Task.Label, r.ID, series.Name,
					fmt.Sprintf("%d", len(series.Points)),
					fmt.Sprintf("%g", first), fmt.Sprintf("%g", last),
					fmt.Sprintf("%g", min), fmt.Sprintf("%g", max),
					"-", "-", "-",
				})
			}
			if len(r.Rows) > 0 {
				res.Rows = append(res.Rows, []string{
					tr.Task.Label, r.ID, "(table)",
					fmt.Sprintf("%d", len(r.Rows)), "-", "-", "-", "-", "-", "-", "-",
				})
			}
		}
	}
	s.appendReplicateStats(res, trs)
	for _, th := range s.Thresholds {
		s.appendThreshold(res, trs, th)
	}
	// "stores=[]" keeps the note's bytes from when sweeps had a
	// descriptor-store axis, so result documents stay byte-identical.
	res.AddNote("grid: %d experiments × ns=%v ks=%v fracs=%v churn=%v soap=%v faults=%v stores=[] seeds=%v trials=%d",
		len(s.Experiments), s.Ns, s.Ks, s.Fracs, churnLabels(s.Churn), soapLabels(s.Soap), faultsLabels(s.Faults), s.Seeds, max(1, s.Trials))
	if failed > 0 {
		res.AddNote("%d/%d tasks failed", failed, len(trs))
	}
	return res
}

// churnLabels renders the churn axis for the grid note.
func churnLabels(specs []churn.Spec) []string {
	out := make([]string, len(specs))
	for i, spec := range specs {
		out[i] = spec.Label()
	}
	return out
}

// soapLabels renders the soap axis for the grid note.
func soapLabels(specs []soap.Spec) []string {
	out := make([]string, len(specs))
	for i, spec := range specs {
		out[i] = spec.Label()
	}
	return out
}

// faultsLabels renders the faults axis for the grid note.
func faultsLabels(specs []faults.Spec) []string {
	out := make([]string, len(specs))
	for i, spec := range specs {
		out[i] = spec.Label()
	}
	return out
}

// stripComponents removes the named label components ("trial", ...)
// from a task label ("fig6/n=800/seed=1/trial=2").
func stripComponents(label string, keys ...string) string {
	parts := strings.Split(label, "/")
	out := parts[:0]
	for _, p := range parts {
		drop := false
		for _, k := range keys {
			if strings.HasPrefix(p, k+"=") {
				drop = true
				break
			}
		}
		if !drop {
			out = append(out, p)
		}
	}
	return strings.Join(out, "/")
}

// labelComponent extracts the value of one label component, or "".
func labelComponent(label, key string) string {
	for _, p := range strings.Split(label, "/") {
		if v, ok := strings.CutPrefix(p, key+"="); ok {
			return v
		}
	}
	return ""
}

// appendReplicateStats emits the cross-replicate statistics rows:
//
//   - "(mean±sd)" — with Trials > 1, one row per (grid point, result,
//     series) over the point's trial replicas.
//   - "(mean±sd seeds)" — with several seeds swept, one row per
//     seed-free grid point pooling every seed × trial replicate, the
//     cross-seed statistic the per-seed rows cannot show.
//
// Both carry a Student-t 95% confidence half-width in the last.ci95
// column, sized from the replicate count (see internal/stats).
func (s *Sweep) appendReplicateStats(res *Result, trs []TaskResult) {
	if s.Trials > 1 {
		s.appendStatRows(res, trs, " (mean±sd)", "trial")
	}
	if len(s.Seeds) > 1 {
		s.appendStatRows(res, trs, " (mean±sd seeds)", "trial", "seed")
	}
}

// appendStatRows pools the last value of every (grid point, result,
// series) over the replicate components named in strip, and emits one
// mean / stddev / CI row per pool.
func (s *Sweep) appendStatRows(res *Result, trs []TaskResult, suffix string, strip ...string) {
	type key struct{ point, result, series string }
	pools := map[key]*stats.Welford{}
	var order []key
	for _, tr := range trs {
		if tr.Err != nil {
			continue
		}
		point := stripComponents(tr.Task.Label, strip...)
		for _, r := range tr.Results {
			for _, series := range r.Series {
				k := key{point, r.ID, series.Name}
				w, seen := pools[k]
				if !seen {
					w = &stats.Welford{}
					pools[k] = w
					order = append(order, k)
				}
				_, last, _, _ := seriesStats(series)
				w.Add(last)
			}
		}
	}
	for _, k := range order {
		w := pools[k]
		ci := "-"
		if half, ok := stats.CI95Half(w.Stddev(), w.N()); ok {
			ci = fmt.Sprintf("±%.4g", half)
		}
		res.Rows = append(res.Rows, []string{
			k.point, k.result, k.series + suffix,
			fmt.Sprintf("%d", w.N()),
			"-", "-", "-", "-",
			fmt.Sprintf("%g", w.Mean()), fmt.Sprintf("%g", w.Stddev()), ci,
		})
	}
}

// axisValueLabels renders a swept axis's values exactly as task labels
// embed them, in spec order.
func (s *Sweep) axisValueLabels(axis string) []string {
	var out []string
	switch axis {
	case "n":
		for _, n := range s.Ns {
			out = append(out, fmt.Sprintf("%d", n))
		}
	case "k":
		for _, k := range s.Ks {
			out = append(out, fmt.Sprintf("%d", k))
		}
	case "frac":
		for _, f := range s.Fracs {
			out = append(out, fmt.Sprintf("%g", f))
		}
	case "churn":
		out = churnLabels(s.Churn)
	case "soap":
		out = soapLabels(s.Soap)
	case "faults":
		out = faultsLabels(s.Faults)
	case "seed":
		for _, seed := range s.Seeds {
			out = append(out, fmt.Sprintf("%d", seed))
		}
	}
	return out
}

func seriesStats(s Series) (first, last, min, max float64) {
	if len(s.Points) == 0 {
		return 0, 0, 0, 0
	}
	first = s.Points[0].Y
	last = s.Points[len(s.Points)-1].Y
	min, max = first, first
	for _, p := range s.Points {
		if p.Y < min {
			min = p.Y
		}
		if p.Y > max {
			max = p.Y
		}
	}
	return first, last, min, max
}
