package experiment

import (
	"strings"
	"testing"
)

// FuzzParseSweep hunts for sweep specs that panic the parser or break
// the expansion contract: any accepted sweep must expand into a task
// grid with unique labels (the runner's substream-independence
// precondition) — or fail Tasks() cleanly on an unknown experiment ID.
func FuzzParseSweep(f *testing.F) {
	f.Add([]byte(`{"experiments": ["fig6"], "ns": [800, 1000], "seeds": [1, 2]}`))
	f.Add([]byte(`{"experiments": ["churn-repair"], "quick": true, "churn": [{"process": "poisson", "leave": 8}]}`))
	f.Add([]byte(`{"experiments": ["hsdir-outage"], "faults": [{"outage_frac": 0.3, "outage_at_h": 2, "retry_attempts": 4, "retry_backoff_s": 1800}], "seeds": [1], "trials": 2}`))
	f.Add([]byte(`{"experiments": ["fig4"], "fracs": [0.1, 0.2], "trials": 2}`))
	f.Add([]byte(`{"experiments": ["fig6"], "thresholds": [{"series": "reach", "stat": "last", "axis": "n", "below": 0.5}]}`))
	f.Add([]byte(`{"experiments": []}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Replay churn specs open fuzzer-chosen files; the trace format
		// has its own fuzz target in internal/churn.
		if strings.Contains(string(data), "trace_file") {
			t.Skip()
		}
		s, err := ParseSweep(data)
		if err != nil {
			return
		}
		// Bound the grid before expanding: the fuzzer may legitimately
		// write trials:1e9, and the contract under test is label
		// uniqueness, not memory exhaustion.
		size := len(s.Experiments)
		for _, n := range []int{len(s.Ns), len(s.Ks), len(s.Fracs), len(s.Churn),
			len(s.Soap), len(s.Faults), len(s.Seeds), s.Trials} {
			if n > 1 {
				size *= n
			}
			if size > 4096 {
				t.Skip()
			}
		}
		tasks, terr := s.Tasks()
		if terr != nil {
			return // unknown experiment ID — a clean failure
		}
		seen := make(map[string]struct{}, len(tasks))
		for _, task := range tasks {
			if task.Label == "" {
				t.Fatalf("task with empty label from input %q", data)
			}
			if _, dup := seen[task.Label]; dup {
				t.Fatalf("duplicate task label %q from input %q", task.Label, data)
			}
			seen[task.Label] = struct{}{}
		}
	})
}
