package graph

import (
	"slices"
	"testing"

	"onionbots/internal/sim"
)

// refGraph is the map-of-sets adjacency the slice-backed Graph
// replaced, kept as a differential oracle: every operation is the
// obvious one, so any disagreement with Graph is a Graph bug.
type refGraph struct {
	adj   map[int]map[int]struct{}
	edges int
}

func newRef() *refGraph { return &refGraph{adj: map[int]map[int]struct{}{}} }

func (r *refGraph) addNode(id int) {
	if _, ok := r.adj[id]; !ok {
		r.adj[id] = map[int]struct{}{}
	}
}

func (r *refGraph) addEdge(u, v int) bool {
	if u == v {
		return false
	}
	r.addNode(u)
	r.addNode(v)
	if _, ok := r.adj[u][v]; ok {
		return false
	}
	r.adj[u][v] = struct{}{}
	r.adj[v][u] = struct{}{}
	r.edges++
	return true
}

func (r *refGraph) addEdgesAmong(nodes []int) int {
	added := 0
	for i, u := range nodes {
		for _, v := range nodes[i+1:] {
			_, uok := r.adj[u]
			_, vok := r.adj[v]
			if uok && vok && r.addEdge(u, v) {
				added++
			}
		}
	}
	return added
}

func (r *refGraph) removeEdge(u, v int) bool {
	if _, ok := r.adj[u][v]; !ok {
		return false
	}
	delete(r.adj[u], v)
	delete(r.adj[v], u)
	r.edges--
	return true
}

func (r *refGraph) removeNode(id int) []int {
	nbrs, ok := r.adj[id]
	if !ok {
		return nil
	}
	out := r.neighbors(id)
	for v := range nbrs {
		delete(r.adj[v], id)
	}
	r.edges -= len(nbrs)
	delete(r.adj, id)
	return out
}

func (r *refGraph) neighbors(id int) []int {
	out := []int{}
	for v := range r.adj[id] {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

func (r *refGraph) nodes() []int {
	out := []int{}
	for v := range r.adj {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

func (r *refGraph) connected() bool {
	ids := r.nodes()
	if len(ids) <= 1 {
		return true
	}
	seen := map[int]bool{ids[0]: true}
	queue := []int{ids[0]}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for v := range r.adj[u] {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return len(seen) == len(ids)
}

// graphOp is one mutation applied to both implementations.
type graphOp struct {
	kind byte
	u, v int
	set  []int // AddEdgesAmong's node list; AddNode adds it too
}

// numOpKinds counts the graphOp kinds apply understands.
const numOpKinds = 6

// apply runs op on g and r and fails t if their return values differ.
// The clone kind checks that a Clone starts equal to its source and
// that mutating it leaves the source alone.
func apply(t testing.TB, g *Graph, r *refGraph, op graphOp, idSpace int) {
	t.Helper()
	switch op.kind % numOpKinds {
	case 0:
		for _, id := range append([]int{op.u}, op.set...) {
			g.AddNode(id)
			r.addNode(id)
		}
	case 1:
		if got, want := g.AddEdge(op.u, op.v), r.addEdge(op.u, op.v); got != want {
			t.Fatalf("AddEdge(%d,%d) = %v, reference %v", op.u, op.v, got, want)
		}
	case 2:
		if got, want := g.RemoveEdge(op.u, op.v), r.removeEdge(op.u, op.v); got != want {
			t.Fatalf("RemoveEdge(%d,%d) = %v, reference %v", op.u, op.v, got, want)
		}
	case 3:
		got, want := g.RemoveNode(op.u), r.removeNode(op.u)
		if (got == nil) != (want == nil) || !slices.Equal(got, want) {
			t.Fatalf("RemoveNode(%d) = %v, reference %v", op.u, got, want)
		}
	case 4:
		if got, want := g.AddEdgesAmong(op.set), r.addEdgesAmong(op.set); got != want {
			t.Fatalf("AddEdgesAmong(%v) = %d, reference %d", op.set, got, want)
		}
	case 5:
		c := g.Clone()
		compareGraphs(t, c, r, idSpace)
		c.RemoveNode(op.u)
		c.AddEdge(op.u, op.v)
		c.AddEdgesAmong(op.set)
		if err := c.Validate(); err != nil {
			t.Fatalf("mutated clone: %v", err)
		}
	}
	compareGraphs(t, g, r, idSpace)
}

// compareGraphs fails t unless g and r agree on every read, ids
// 0..idSpace-1 included whether present or not.
func compareGraphs(t testing.TB, g *Graph, r *refGraph, idSpace int) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	ids := r.nodes()
	if got := g.Nodes(); !slices.Equal(got, ids) {
		t.Fatalf("Nodes = %v, reference %v", got, ids)
	}
	if g.NumNodes() != len(ids) || g.NumEdges() != r.edges {
		t.Fatalf("NumNodes/NumEdges = %d/%d, reference %d/%d", g.NumNodes(), g.NumEdges(), len(ids), r.edges)
	}
	maxDeg := 0
	for u := 0; u < idSpace; u++ {
		want := r.neighbors(u)
		maxDeg = max(maxDeg, len(want))
		if _, ok := r.adj[u]; g.HasNode(u) != ok {
			t.Fatalf("HasNode(%d) = %v, reference %v", u, !ok, ok)
		}
		if got := g.Neighbors(u); !slices.Equal(got, want) {
			t.Fatalf("Neighbors(%d) = %v, reference %v", u, got, want)
		}
		if got := g.Degree(u); got != len(want) {
			t.Fatalf("Degree(%d) = %d, reference %d", u, got, len(want))
		}
		for v := 0; v < idSpace; v++ {
			_, want := r.adj[u][v]
			if got := g.HasEdge(u, v); got != want {
				t.Fatalf("HasEdge(%d,%d) = %v, reference %v", u, v, got, want)
			}
		}
	}
	if g.MaxDegree() != maxDeg {
		t.Fatalf("MaxDegree = %d, reference %d", g.MaxDegree(), maxDeg)
	}
	if got, want := g.Connected(), r.connected(); got != want {
		t.Fatalf("Connected = %v, reference %v", got, want)
	}
	ix := g.Snapshot()
	if !slices.Equal(ix.IDs, ids) {
		t.Fatalf("Snapshot IDs = %v, reference %v", ix.IDs, ids)
	}
	for i, id := range ids {
		var row []int
		for _, j := range ix.nbr[ix.off[i]:ix.off[i+1]] {
			row = append(row, ix.IDs[j])
		}
		if want := r.neighbors(id); !slices.Equal(row, want) {
			t.Fatalf("Snapshot row of %d = %v, reference %v", id, row, want)
		}
	}
}

func TestGraphMatchesReference(t *testing.T) {
	const idSpace = 24
	for seed := uint64(1); seed <= 40; seed++ {
		rng := sim.NewRNG(seed)
		g, r := New(), newRef()
		for step := 0; step < 150; step++ {
			op := graphOp{kind: byte(rng.Intn(numOpKinds)), u: rng.Intn(idSpace), v: rng.Intn(idSpace)}
			// Bias towards edge insertion so graphs get dense enough for
			// the clique and pruning-shaped paths to matter.
			if rng.Bool(0.3) {
				op.kind = 1
			}
			for n := rng.Intn(6); n > 0; n-- {
				op.set = append(op.set, rng.Intn(idSpace))
			}
			apply(t, g, r, op, idSpace)
		}
	}
}

// FuzzGraphOps decodes the input four bytes per op (kind, u, v, set
// mask) and drives Graph and the reference through the same sequence.
// Each op re-checks every read, so inputs are cut at maxFuzzOps to keep
// executions fast.
func FuzzGraphOps(f *testing.F) {
	const maxFuzzOps = 64
	f.Add([]byte{1, 0, 1, 0, 1, 1, 2, 0, 3, 1, 0, 0, 4, 0, 0, 0xff})
	f.Add([]byte{4, 0, 0, 0x0f, 0, 7, 0, 0, 4, 3, 0, 0xf0, 5, 2, 9, 0x33, 3, 2, 0, 0})
	// An 8-clique, then deletions that hit the ends of full rows.
	f.Add([]byte{0, 0, 0, 0xff, 4, 0, 0, 0xff, 3, 14, 0, 0, 2, 12, 0, 0, 3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const idSpace = 16
		g, r := New(), newRef()
		for ops := 0; ops < maxFuzzOps && len(data) >= 4; ops, data = ops+1, data[4:] {
			op := graphOp{kind: data[0], u: int(data[1]) % idSpace, v: int(data[2]) % idSpace}
			for b := 0; b < 8; b++ {
				if data[3]&(1<<b) != 0 {
					op.set = append(op.set, (op.u+2*b)%idSpace)
				}
			}
			apply(t, g, r, op, idSpace)
		}
	})
}
