package ddsr

import (
	"fmt"
	"slices"

	"onionbots/internal/graph"
	"onionbots/internal/sim"
)

// Maintainer is a graph that supports node takedown under some
// maintenance policy. DDSR overlays self-repair; Normal graphs do not.
type Maintainer interface {
	// RemoveNode takes down one node, applying the policy's repair.
	RemoveNode(id int)
	// Graph exposes the current topology for measurement.
	Graph() *graph.Graph
}

// Joiner is a Maintainer whose policy also covers nodes joining the
// overlay — the other half of membership churn. The churn engine
// (internal/churn) feeds joins through this when the target supports it.
type Joiner interface {
	Maintainer
	// Join adds a fresh node and links it to candidate peers under the
	// policy, returning the number of edges created.
	Join(id int, peers []int) int
}

// Config tunes the DDSR maintenance policy.
type Config struct {
	// DMin is the degree below which a node tries to acquire new peers
	// from its neighbors-of-neighbors. Zero disables the floor.
	DMin int
	// DMax is the degree ceiling enforced by pruning. Zero with
	// Pruning=true is invalid.
	DMax int
	// Pruning enables the prune step. Figures 4a/4c use Pruning=false,
	// 4b/4d use Pruning=true.
	Pruning bool
}

// DefaultConfig returns the policy used throughout the paper's Section V
// for an initially k-regular topology: prune above k, re-peer below
// max(2, k/2).
func DefaultConfig(k int) Config {
	dmin := k / 2
	if dmin < 2 {
		dmin = 2
	}
	return Config{DMin: dmin, DMax: k, Pruning: true}
}

// Stats counts maintenance actions, exposed for the ablation benchmarks.
type Stats struct {
	// RepairEdgesAdded counts edges created by the clique-repair step.
	RepairEdgesAdded int
	// EdgesPruned counts edges removed by the pruning step.
	EdgesPruned int
	// FloorEdgesAdded counts edges created by DMin enforcement.
	FloorEdgesAdded int
	// NodesRemoved counts takedowns processed.
	NodesRemoved int
	// NodesJoined counts joins processed, and JoinEdgesAdded the direct
	// links they created (churn scenarios). Floor re-peering triggered
	// by a join counts toward FloorEdgesAdded, never here.
	NodesJoined    int
	JoinEdgesAdded int
}

// Overlay is a DDSR-maintained graph.
type Overlay struct {
	g     *graph.Graph
	cfg   Config
	rng   *sim.RNG
	stats Stats
	// nbuf and nnbuf are reusable neighbor-list scratches for the
	// prune/floor scans, which would otherwise allocate one (or, for NoN
	// scans, k+1) slices per repair step. touched collects the nodes a
	// takedown or join must re-check against the DMin floor.
	nbuf    []int
	nnbuf   []int
	touched []int
}

var (
	_ Maintainer = (*Overlay)(nil)
	_ Joiner     = (*Overlay)(nil)
)

// New wraps g (taking ownership) in a DDSR overlay. rng drives the
// random tie-breaks mandated by the pruning rule.
func New(g *graph.Graph, cfg Config, rng *sim.RNG) (*Overlay, error) {
	if cfg.Pruning && cfg.DMax < 1 {
		return nil, fmt.Errorf("ddsr: pruning enabled with DMax=%d", cfg.DMax)
	}
	if cfg.DMin > cfg.DMax && cfg.DMax > 0 {
		return nil, fmt.Errorf("ddsr: DMin=%d exceeds DMax=%d", cfg.DMin, cfg.DMax)
	}
	if rng == nil {
		rng = sim.NewRNG(0)
	}
	return &Overlay{g: g, cfg: cfg, rng: rng}, nil
}

// NewRegular builds a random k-regular graph of n nodes and wraps it.
func NewRegular(n, k int, cfg Config, rng *sim.RNG) (*Overlay, error) {
	g, err := graph.RandomRegular(n, k, rng)
	if err != nil {
		return nil, fmt.Errorf("ddsr: %w", err)
	}
	return New(g, cfg, rng)
}

// Graph exposes the current topology. Callers must treat it as
// read-only; mutate only through RemoveNode.
func (o *Overlay) Graph() *graph.Graph { return o.g }

// Config returns the active policy.
func (o *Overlay) Config() Config { return o.cfg }

// Stats returns a copy of the maintenance counters.
func (o *Overlay) Stats() Stats { return o.stats }

// RemoveNode takes down node id and runs the self-repair protocol:
// clique the orphaned neighborhood, prune back to DMax, then re-peer
// nodes that fell below DMin. Removing an absent node is a no-op.
func (o *Overlay) RemoveNode(id int) {
	nbrs := o.g.RemoveNode(id)
	if nbrs == nil {
		return
	}
	o.stats.NodesRemoved++
	o.repairNeighborhood(nbrs)
}

// repairNeighborhood runs the post-removal maintenance steps (clique
// repair, prune, floor) for one orphaned neighborhood. Members that
// have since been removed themselves are skipped by the graph
// primitives, so deferred repair (Lagged) can replay stale
// neighborhoods safely.
func (o *Overlay) repairNeighborhood(nbrs []int) {
	// Repairing: every pair of former neighbors links up.
	o.stats.RepairEdgesAdded += o.g.AddEdgesAmong(nbrs)

	if !o.cfg.Pruning {
		return
	}

	// Pruning: each former neighbor trims its highest-degree peers until
	// back within DMax. Both ends of a pruned edge join the floor
	// candidates (a pruning former neighbor is one already).
	o.touched = append(o.touched[:0], nbrs...)
	for _, v := range nbrs {
		for o.g.Degree(v) > o.cfg.DMax {
			w := o.highestDegreePeer(v)
			o.g.RemoveEdge(v, w)
			o.stats.EdgesPruned++
			o.touched = append(o.touched, w)
		}
	}

	if o.cfg.DMin <= 0 {
		return
	}
	// Floor: any node involved in this round whose degree dropped below
	// DMin re-peers with its lowest-degree neighbors-of-neighbors,
	// visited once each in ascending id order.
	o.floorTouched()
}

// floorTouched runs enforceFloor over the distinct touched nodes in
// ascending order.
func (o *Overlay) floorTouched() {
	slices.Sort(o.touched)
	o.touched = slices.Compact(o.touched)
	for _, v := range o.touched {
		o.enforceFloor(v)
	}
}

// Lagged wraps an Overlay so self-repair runs with latency instead of
// instantaneously: RemoveNode deletes the node at once but queues its
// orphaned neighborhood, and Flush replays the queued repairs in
// removal order. This models what the protocol actually does — a bot's
// neighbors only notice its death at their next ping interval — and is
// what makes churn rate a meaningful axis: between flushes, damage
// accumulates unrepaired, so a Poisson leave process at rate λ races
// the maintenance cadence. Joins and direct Overlay methods remain
// immediate.
type Lagged struct {
	*Overlay
	pending [][]int
}

var (
	_ Maintainer = (*Lagged)(nil)
	_ Joiner     = (*Lagged)(nil)
)

// NewLagged wraps o (taking ownership) with deferred repair.
func NewLagged(o *Overlay) *Lagged { return &Lagged{Overlay: o} }

// RemoveNode deletes the node immediately and queues the repair of its
// orphaned neighborhood for the next Flush.
func (l *Lagged) RemoveNode(id int) {
	nbrs := l.g.RemoveNode(id)
	if nbrs == nil {
		return
	}
	l.stats.NodesRemoved++
	l.pending = append(l.pending, nbrs)
}

// Flush replays every queued repair in removal order and returns how
// many neighborhoods were repaired. Members removed since their
// neighborhood was queued are skipped.
func (l *Lagged) Flush() int {
	n := len(l.pending)
	for _, nbrs := range l.pending {
		l.repairNeighborhood(nbrs)
	}
	l.pending = l.pending[:0]
	return n
}

// PendingRepairs reports the queued, not-yet-flushed repair count.
func (l *Lagged) PendingRepairs() int { return len(l.pending) }

// Join adds node id and links it to the candidate peers under the
// maintenance policy: the newcomer accepts candidates until it reaches
// DMax, and a candidate pushed above DMax by the new link immediately
// runs the prune rule (trim highest-degree peers) — accept-then-prune,
// so a newcomer connects even into a saturated k-regular graph instead
// of being refused everywhere and stranded. Afterwards the floor rule
// tops up the newcomer and any prune victims that fell below DMin from
// their neighbors-of-neighbors; those edges count toward
// Stats.FloorEdgesAdded only, keeping the repair counters disjoint. It
// returns the number of direct links created for the newcomer. Joining
// an existing node is a no-op returning 0.
func (o *Overlay) Join(id int, peers []int) int {
	if o.g.HasNode(id) {
		return 0
	}
	o.g.AddNode(id)
	o.stats.NodesJoined++
	added := 0
	o.touched = o.touched[:0]
	for _, p := range peers {
		if o.cfg.DMax > 0 && o.g.Degree(id) >= o.cfg.DMax {
			break
		}
		if !o.g.AddEdge(id, p) {
			continue
		}
		added++
		if !o.cfg.Pruning {
			continue
		}
		for o.g.Degree(p) > o.cfg.DMax {
			w := o.highestDegreePeer(p)
			o.g.RemoveEdge(p, w)
			o.stats.EdgesPruned++
			o.touched = append(o.touched, p, w)
		}
	}
	if o.cfg.DMin > 0 {
		o.enforceFloor(id)
		o.floorTouched()
	}
	o.stats.JoinEdgesAdded += added
	return added
}

// highestDegreePeer returns the neighbor of v with the largest degree,
// choosing uniformly at random among ties as the paper specifies.
func (o *Overlay) highestDegreePeer(v int) int {
	o.nbuf = o.g.AppendNeighbors(o.nbuf[:0], v)
	nbrs := o.nbuf
	best := -1
	bestDeg := -1
	count := 0
	for _, w := range nbrs {
		d := o.g.Degree(w)
		switch {
		case d > bestDeg:
			best, bestDeg, count = w, d, 1
		case d == bestDeg:
			count++
			if o.rng.Intn(count) == 0 {
				best = w
			}
		}
	}
	return best
}

// enforceFloor connects v to lowest-degree NoN candidates until its
// degree reaches DMin or no candidate remains. Candidates must not
// already be peers and must have headroom under DMax.
func (o *Overlay) enforceFloor(v int) {
	if !o.g.HasNode(v) || o.g.Degree(v) >= o.cfg.DMin {
		return
	}
	for o.g.Degree(v) < o.cfg.DMin {
		cand := o.lowestDegreeNoN(v)
		if cand < 0 {
			return
		}
		if o.g.AddEdge(v, cand) {
			o.stats.FloorEdgesAdded++
		} else {
			return
		}
	}
}

// lowestDegreeNoN returns v's non-adjacent neighbor-of-neighbor with the
// smallest degree and headroom under DMax, or -1 if none exists. Ties
// break uniformly at random.
func (o *Overlay) lowestDegreeNoN(v int) int {
	best := -1
	bestDeg := int(^uint(0) >> 1)
	count := 0
	o.nbuf = o.g.AppendNeighbors(o.nbuf[:0], v)
	for _, u := range o.nbuf {
		o.nnbuf = o.g.AppendNeighbors(o.nnbuf[:0], u)
		for _, w := range o.nnbuf {
			if w == v || o.g.HasEdge(v, w) {
				continue
			}
			d := o.g.Degree(w)
			if o.cfg.DMax > 0 && d >= o.cfg.DMax {
				continue
			}
			switch {
			case d < bestDeg:
				best, bestDeg, count = w, d, 1
			case d == bestDeg && w != best:
				count++
				if o.rng.Intn(count) == 0 {
					best = w
				}
			}
		}
	}
	return best
}
