package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// readRecords collects the record lines from saved benchmark output: a
// file, or every regular file of a directory in name order.
func readRecords(path string) ([]*record, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		entries, err := os.ReadDir(path)
		if err != nil {
			return nil, err
		}
		files = files[:0]
		for _, e := range entries {
			if e.Type().IsRegular() {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
	}
	var out []*record
	for _, f := range files {
		recs, err := readRecordFile(f)
		if err != nil {
			return nil, err
		}
		out = append(out, recs...)
	}
	return out, nil
}

func readRecordFile(path string) ([]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !strings.HasPrefix(string(line), `{"record":`) {
			continue
		}
		var wrap struct {
			Record *record `json:"record"`
		}
		if err := json.Unmarshal(line, &wrap); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, wrap.Record)
	}
	return out, sc.Err()
}

// bounds reads each end-to-end metric's regression bound from
// BENCHMARK.json.
func bounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, m := range b.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// verdict is the comparison of one metric on one workload.
type verdict struct {
	Workload, Metric string
	Base, Next       []float64
	Bound            float64 // 0: no bound (a per-layer metric)
	LowerBetter      bool
}

// judge applies the benchmark's rules to the two sides:
//
//   - regression: the new median is worse than the base median by more
//     than the bound;
//   - unresolved: either side's run-to-run spread (interquartile
//     distance over median) exceeds the bound, unless every new run
//     beats every base run;
//   - improved: the new side wins at least nine tenths of the
//     alternating pairs and the medians differ by more than the base
//     side's interquartile distance;
//   - ok otherwise ("-" for a metric without a bound that did not
//     improve).
func (v verdict) judge() string {
	bm, nm := median(v.Base), median(v.Next)
	worse := nm - bm
	if !v.LowerBetter {
		worse = -worse
	}
	wins, pairs := pairWins(v.Base, v.Next, v.LowerBetter)
	bq1, bq3 := quartiles(v.Base)
	improved := pairs > 0 && float64(wins) >= 0.9*float64(pairs) && -worse > bq3-bq1
	if v.Bound > 0 {
		if allBetter(v.Base, v.Next, v.LowerBetter) {
			return "improved"
		}
		if spread(v.Base) > v.Bound || spread(v.Next) > v.Bound {
			return "unresolved"
		}
		if bm != 0 && worse/bm > v.Bound {
			return "regression"
		}
	}
	if improved {
		return "improved"
	}
	if v.Bound > 0 {
		return "ok"
	}
	return "-"
}

// allBetter reports whether every new value beats every base value.
func allBetter(base, next []float64, lowerBetter bool) bool {
	if len(base) == 0 || len(next) == 0 {
		return false
	}
	bs, ns := sorted(base), sorted(next)
	if lowerBetter {
		return ns[len(ns)-1] < bs[0]
	}
	return ns[0] > bs[len(bs)-1]
}

// compareRecords pairs base and new records by workload and trace mode
// and returns one verdict per metric the two sides share.
func compareRecords(base, next []*record, bound map[string]float64) []verdict {
	type key struct {
		workload string
		trace    bool
	}
	group := func(recs []*record) map[key][]*record {
		g := map[key][]*record{}
		for _, r := range recs {
			k := key{r.Workload, r.Trace}
			g[k] = append(g[k], r)
		}
		return g
	}
	bg, ng := group(base), group(next)
	var keys []key
	for k := range bg {
		if _, ok := ng[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return !keys[i].trace && keys[j].trace
	})
	var out []verdict
	for _, k := range keys {
		defs := endToEnd
		if k.trace {
			defs = perLayer
		}
		for _, d := range defs {
			v := verdict{Workload: k.workload, Metric: d.name, LowerBetter: d.lowerBetter}
			if !k.trace {
				v.Bound = bound[d.name]
			}
			for _, r := range bg[k] {
				if x, ok := r.Metrics[d.name]; ok {
					v.Base = append(v.Base, x)
				}
			}
			for _, r := range ng[k] {
				if x, ok := r.Metrics[d.name]; ok {
					v.Next = append(v.Next, x)
				}
			}
			if len(v.Base) > 0 && len(v.Next) > 0 {
				out = append(out, v)
			}
		}
	}
	return out
}

// cmdCompare: perfbench compare [--bench BENCHMARK.json] BASE NEW,
// where BASE and NEW are files or directories of saved output. Records
// pair in file order, so runs made alternately pair up as made. Exits
// 1 when any end-to-end metric regressed beyond its bound.
func cmdCompare(args []string, stdout io.Writer) (int, error) {
	fsys := flag.NewFlagSet("compare", flag.ContinueOnError)
	bench := fsys.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fsys.Parse(args); err != nil {
		return 2, err
	}
	if fsys.NArg() != 2 {
		return 2, errors.New("usage: compare [--bench BENCHMARK.json] BASE NEW")
	}
	bound, err := bounds(*bench)
	if err != nil {
		return 2, err
	}
	base, err := readRecords(fsys.Arg(0))
	if err != nil {
		return 2, err
	}
	next, err := readRecords(fsys.Arg(1))
	if err != nil {
		return 2, err
	}
	verdicts := compareRecords(base, next, bound)
	if len(verdicts) == 0 {
		return 2, errors.New("no workload appears on both sides")
	}
	fmt.Fprintf(stdout, "%-15s %-27s %4s %12s %12s %12s %12s %12s %12s %7s %6s  %s\n",
		"workload", "metric", "n", "base.q1", "base.med", "base.q3", "new.q1", "new.med", "new.q3", "won", "bound", "verdict")
	code := 0
	for _, v := range verdicts {
		bq1, bq3 := quartiles(v.Base)
		nq1, nq3 := quartiles(v.Next)
		wins, pairs := pairWins(v.Base, v.Next, v.LowerBetter)
		won := "-"
		if pairs > 0 {
			won = fmt.Sprintf("%d/%d", wins, pairs)
		}
		bnd := "-"
		if v.Bound > 0 {
			bnd = fmt.Sprintf("%g", v.Bound)
		}
		j := v.judge()
		if j == "regression" {
			code = 1
		}
		fmt.Fprintf(stdout, "%-15s %-27s %4d %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %7s %6s  %s\n",
			v.Workload, v.Metric, min(len(v.Base), len(v.Next)), bq1, median(v.Base), bq3,
			nq1, median(v.Next), nq3, won, bnd, j)
	}
	return code, nil
}

// splitClaims are the layer splits the workloads were chosen for, as
// checks on the median CPU shares of traced runs.
func splitClaims(share func(workload, metric string) (float64, bool)) []string {
	var out []string
	check := func(desc string, ok, known bool) {
		status := "CONFIRMED"
		switch {
		case !known:
			status = "MISSING"
		case !ok:
			status = "REFUTED"
		}
		out = append(out, status+" "+desc)
	}
	gt, gtOK := share("graph-takedown", "split.graph_ddsr_frac")
	gs, gsOK := share("soap-campaign", "split.graph_ddsr_frac")
	check(fmt.Sprintf("graph+ddsr hold the majority of graph-takedown CPU (%.3f > 0.5)", gt), gt > 0.5, gtOK)
	check(fmt.Sprintf("graph+ddsr are about 0%% of soap-campaign CPU (%.3f < 0.02)", gs), gs < 0.02, gsOK)
	ts, tsOK := share("soap-campaign", "split.tor_frac")
	tc, tcOK := share("churn-faults", "split.tor_frac")
	check(fmt.Sprintf("tor takes a larger CPU share in soap-campaign than in churn-faults (%.3f > %.3f)", ts, tc), ts > tc, tsOK && tcOK)
	cc, ccOK := share("churn-faults", "split.crypto_frac")
	cs, csOK := share("soap-campaign", "split.crypto_frac")
	check(fmt.Sprintf("crypto takes a larger CPU share in churn-faults than in soap-campaign (%.3f > %.3f)", cc, cs), cc > cs, ccOK && csOK)
	return out
}

// cmdSplit: perfbench split PATH... reads traced runs and checks the
// layer split each workload was chosen for. Exits 1 when a claim is
// refuted or cannot be checked.
func cmdSplit(args []string, stdout io.Writer) (int, error) {
	if len(args) == 0 {
		return 2, errors.New("usage: split PATH...")
	}
	values := map[string]map[string][]float64{}
	for _, path := range args {
		recs, err := readRecords(path)
		if err != nil {
			return 2, err
		}
		for _, r := range recs {
			if !r.Trace {
				continue
			}
			if values[r.Workload] == nil {
				values[r.Workload] = map[string][]float64{}
			}
			for k, v := range r.Metrics {
				values[r.Workload][k] = append(values[r.Workload][k], v)
			}
		}
	}
	for _, wl := range sortedKeys(values) {
		fmt.Fprintf(stdout, "%s (%d traced runs): ", wl, len(values[wl]["profile.cpu_s"]))
		for _, b := range bucketNames() {
			if share := median(values[wl][b+".cpu_s"]) / median(values[wl]["profile.cpu_s"]); share >= 0.005 {
				fmt.Fprintf(stdout, "%s %.1f%%  ", b, 100*share)
			}
		}
		fmt.Fprintln(stdout)
	}
	code := 0
	for _, line := range splitClaims(func(wl, metric string) (float64, bool) {
		xs := values[wl][metric]
		return median(xs), len(xs) > 0
	}) {
		if !strings.HasPrefix(line, "CONFIRMED") {
			code = 1
		}
		fmt.Fprintln(stdout, line)
	}
	return code, nil
}
