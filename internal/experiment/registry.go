package experiment

import (
	"fmt"
	"sort"
	"sync"

	"onionbots/internal/churn"
	"onionbots/internal/faults"
	"onionbots/internal/soap"
)

// Params is the generic parameter set an experiment task receives. The
// runner and the sweep engine only speak Params; each registered
// experiment maps the axes onto whichever knobs its own config has and
// ignores the rest (fig3 is a fixed walkthrough, table1 is an audit, so
// both ignore everything but Quick).
type Params struct {
	// Quick selects the scaled-down preset instead of the paper's full
	// parameters.
	Quick bool `json:"quick"`
	// Seed drives all randomness. The runner replaces it with a
	// substream derived from (Seed, task label) before the experiment
	// sees it; TaskResult.EffectiveSeed records the derived value.
	Seed uint64 `json:"seed"`
	// N overrides the population size (graph nodes, bots, or hosts,
	// whichever the experiment sweeps). 0 keeps the preset.
	N int `json:"n,omitempty"`
	// K overrides the overlay degree / regularity. 0 keeps the preset.
	K int `json:"k,omitempty"`
	// Frac overrides the takedown/deletion fraction for experiments
	// that have one (fig4). 0 keeps the preset.
	Frac float64 `json:"frac,omitempty"`
	// Churn overrides the dynamic-membership scenario for experiments
	// that run one (churn-repair, churn-hotlist, churn-soap). nil keeps
	// the preset; experiments without a churn phase ignore it.
	Churn *churn.Spec `json:"churn,omitempty"`
	// Soap overrides the mitigation campaign for experiments that run
	// one (churn-soap). nil keeps the preset; experiments without a
	// SOAP phase ignore it.
	Soap *soap.Spec `json:"soap,omitempty"`
	// Faults overrides the infrastructure fault plane for experiments
	// that run one (relay-outage, hsdir-outage): which fault processes
	// to inject and which client retry budget to fight them with. nil
	// keeps the preset; experiments without a fault phase ignore it.
	Faults *faults.Spec `json:"faults,omitempty"`
	// Store names the descriptor store for fig7. The only valid value
	// is ""; fig7 fails on any other name and the other experiments
	// ignore it.
	//
	// Deprecated: there is one descriptor store. Leave Store empty.
	Store string `json:"store,omitempty"`
}

// Definition is one registered experiment: a stable ID, a title for
// -list output, and a run function that regenerates the figure or table
// for the given parameters. Run must be deterministic: its output may
// depend only on p, never on wall-clock time or goroutine scheduling.
// The single sanctioned exception is full-mode probing, which exists to
// measure this machine's key-generation rate and labels its output as
// measured; with Quick set, every experiment is wall-clock-free.
type Definition struct {
	ID    string
	Title string
	Run   func(p Params) ([]*Result, error)
}

var (
	registryMu sync.RWMutex
	registry   = map[string]Definition{}
)

// Register adds a definition to the registry. Experiments register
// themselves from init, so importing the package is enough to populate
// the catalogue; registering a duplicate or incomplete definition
// panics because it is always a programming error.
func Register(def Definition) {
	if def.ID == "" || def.Run == nil {
		panic(fmt.Sprintf("experiment: incomplete definition %+v", def))
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[def.ID]; dup {
		panic(fmt.Sprintf("experiment: duplicate registration of %q", def.ID))
	}
	registry[def.ID] = def
}

// Lookup returns the definition registered under id.
func Lookup(id string) (Definition, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	def, ok := registry[id]
	return def, ok
}

// IDs returns every registered experiment ID, sorted.
func IDs() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
