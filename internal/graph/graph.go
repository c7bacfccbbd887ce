package graph

import (
	"fmt"
	"math"
	"slices"
)

// Graph is a mutable, undirected, simple graph over dense non-negative
// int node ids. The zero value is not usable; call New.
//
// Storage is indexed by id: adj[id] holds the neighbors of id as a
// strictly ascending int32 slice and present[id] marks live nodes, so
// memory is O(largest id ever added). Rows hold about DMax entries in
// every experiment, so edge insertion and deletion shift a few int32s
// in place and every read is already sorted.
type Graph struct {
	adj     [][]int32
	present []bool
	nodes   int
	edges   int

	// Connected's reusable BFS scratch: index-stamped visit slice (a
	// node is visited iff visit[id] == visitGen, so a new sweep is a
	// generation bump, not a reset or an allocation) plus the BFS queue.
	// Clones do not inherit the scratch; it is rebuilt on first use.
	visit    []uint32
	visitGen uint32
	queue    []int32
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// newDense returns a graph holding nodes 0..n-1 with no edges, each row
// carved from one shared arena with room for rowCap neighbors. A row
// that outgrows its share is reallocated by append (the three-index
// slice caps it), so neighboring rows are never overwritten.
func newDense(n, rowCap int) *Graph {
	g := &Graph{adj: make([][]int32, n), present: make([]bool, n), nodes: n}
	arena := make([]int32, n*rowCap)
	for i := range g.adj {
		g.adj[i] = arena[i*rowCap : i*rowCap : (i+1)*rowCap]
		g.present[i] = true
	}
	return g
}

// NumNodes reports the number of nodes.
func (g *Graph) NumNodes() int { return g.nodes }

// NumEdges reports the number of (undirected) edges.
func (g *Graph) NumEdges() int { return g.edges }

// HasNode reports whether id is present.
func (g *Graph) HasNode(id int) bool {
	return uint(id) < uint(len(g.present)) && g.present[id]
}

// AddNode inserts an isolated node. Adding an existing node is a no-op.
// Ids index the adjacency storage directly, so a negative id (or one
// beyond int32) panics.
func (g *Graph) AddNode(id int) {
	if id < 0 || id > math.MaxInt32 {
		panic(fmt.Sprintf("graph: node id %d outside [0, %d]", id, math.MaxInt32))
	}
	if id >= len(g.present) {
		g.present = append(g.present, make([]bool, id+1-len(g.present))...)
		g.adj = append(g.adj, make([][]int32, id+1-len(g.adj))...)
	}
	if !g.present[id] {
		g.present[id] = true
		g.nodes++
	}
}

// RemoveNode deletes id and every incident edge, returning the sorted
// list of its former neighbors (the DDSR repair step needs exactly this).
// Removing an absent node returns nil.
func (g *Graph) RemoveNode(id int) []int {
	if !g.HasNode(id) {
		return nil
	}
	row := g.adj[id]
	out := make([]int, len(row))
	for i, v := range row {
		out[i] = int(v)
		g.adj[v] = remove(g.adj[v], int32(id))
	}
	g.edges -= len(row)
	g.adj[id] = nil
	g.present[id] = false
	g.nodes--
	return out
}

// search returns the position of x in the ascending row, or where it
// would be inserted, and whether it is there. Rows are short (about
// DMax), where a linear scan beats binary search.
func search(row []int32, x int32) (int, bool) {
	for i, v := range row {
		if v >= x {
			return i, v == x
		}
	}
	return len(row), false
}

// insert adds x to the ascending row, reporting false if it was there.
func insert(row []int32, x int32) ([]int32, bool) {
	i, found := search(row, x)
	if found {
		return row, false
	}
	row = append(row, 0)
	copy(row[i+1:], row[i:])
	row[i] = x
	return row, true
}

// remove deletes x from the ascending row if it is there.
func remove(row []int32, x int32) []int32 {
	i, found := search(row, x)
	if !found {
		return row
	}
	copy(row[i:], row[i+1:])
	return row[:len(row)-1]
}

// link adds the edge (u, v) between two present, distinct nodes,
// reporting false if it already existed.
func (g *Graph) link(u, v int) bool {
	row, added := insert(g.adj[u], int32(v))
	if !added {
		return false
	}
	g.adj[u] = row
	g.adj[v], _ = insert(g.adj[v], int32(u))
	g.edges++
	return true
}

// AddEdge inserts the undirected edge (u, v), creating missing endpoints.
// Self-loops are rejected. It reports whether a new edge was added.
func (g *Graph) AddEdge(u, v int) bool {
	if u == v {
		return false
	}
	g.AddNode(u)
	g.AddNode(v)
	return g.link(u, v)
}

// AddEdgesAmong links every pair of the given nodes (clique insertion),
// returning the number of edges created. It is the hot path of DDSR
// repair on dense graphs and avoids AddEdge's per-call overhead. Nodes
// must already exist; absent ids are ignored.
func (g *Graph) AddEdgesAmong(nodes []int) int {
	added := 0
	for i, u := range nodes {
		if !g.HasNode(u) {
			continue
		}
		for _, v := range nodes[i+1:] {
			if v != u && g.HasNode(v) && g.link(u, v) {
				added++
			}
		}
	}
	return added
}

// RemoveEdge deletes the undirected edge (u, v) and reports whether it
// existed.
func (g *Graph) RemoveEdge(u, v int) bool {
	if !g.HasEdge(u, v) {
		return false
	}
	g.adj[u] = remove(g.adj[u], int32(v))
	g.adj[v] = remove(g.adj[v], int32(u))
	g.edges--
	return true
}

// HasEdge reports whether the undirected edge (u, v) exists.
func (g *Graph) HasEdge(u, v int) bool {
	// Absent nodes have empty rows; the bound on v keeps int32(v) exact.
	if uint(u) >= uint(len(g.adj)) || uint(v) >= uint(len(g.adj)) {
		return false
	}
	_, found := search(g.adj[u], int32(v))
	return found
}

// Degree reports the degree of id (0 for an absent node).
func (g *Graph) Degree(id int) int {
	if uint(id) >= uint(len(g.adj)) {
		return 0
	}
	return len(g.adj[id])
}

// Neighbors returns the sorted neighbors of id.
func (g *Graph) Neighbors(id int) []int {
	return g.AppendNeighbors(nil, id)
}

// AppendNeighbors appends the sorted neighbors of id to buf and returns
// the extended slice — the allocation-free form of Neighbors for hot
// loops that pass a reused scratch buffer (DDSR repair calls this per
// prune/floor step).
func (g *Graph) AppendNeighbors(buf []int, id int) []int {
	var row []int32
	if uint(id) < uint(len(g.adj)) {
		row = g.adj[id]
	}
	if buf == nil {
		buf = make([]int, 0, len(row))
	}
	for _, v := range row {
		buf = append(buf, int(v))
	}
	return buf
}

// Nodes returns all node ids, sorted.
func (g *Graph) Nodes() []int {
	out := make([]int, 0, g.nodes)
	for id, ok := range g.present {
		if ok {
			out = append(out, id)
		}
	}
	return out
}

// MaxDegree reports the largest degree in the graph (0 if empty).
func (g *Graph) MaxDegree() int {
	max := 0
	for _, row := range g.adj {
		if len(row) > max {
			max = len(row)
		}
	}
	return max
}

// AvgDegree reports the mean degree (0 if empty).
func (g *Graph) AvgDegree() float64 {
	if g.nodes == 0 {
		return 0
	}
	return 2 * float64(g.edges) / float64(g.nodes)
}

// Connected reports whether the graph is connected, without building an
// Indexed snapshot: one BFS straight over the adjacency rows, visited
// bookkeeping in the reusable index-stamped scratch. Empty and
// single-node graphs count as connected. This is the fast path behind
// partition-threshold scans (Fig 6), which ask "still one component?"
// after every deletion batch.
func (g *Graph) Connected() bool {
	if g.nodes <= 1 {
		return true
	}
	if len(g.visit) < len(g.adj) {
		g.visit = make([]uint32, len(g.adj))
		g.visitGen = 0
	}
	g.visitGen++
	if g.visitGen == 0 {
		clear(g.visit)
		g.visitGen = 1
	}
	gen := g.visitGen
	g.queue = g.queue[:0]
	for id, ok := range g.present {
		if ok {
			g.visit[id] = gen
			g.queue = append(g.queue, int32(id))
			break
		}
	}
	for head := 0; head < len(g.queue); head++ {
		for _, v := range g.adj[g.queue[head]] {
			if g.visit[v] != gen {
				g.visit[v] = gen
				g.queue = append(g.queue, v)
			}
		}
	}
	return len(g.queue) == g.nodes
}

// Clone returns a deep copy (without the Connected scratch, which the
// copy rebuilds on first use). The copy's rows share one arena, each
// capped at its length so growing one reallocates it.
func (g *Graph) Clone() *Graph {
	c := &Graph{adj: make([][]int32, len(g.adj)), present: append([]bool(nil), g.present...),
		nodes: g.nodes, edges: g.edges}
	arena := make([]int32, 0, 2*g.edges)
	for id, row := range g.adj {
		if len(row) == 0 {
			continue
		}
		start := len(arena)
		arena = append(arena, row...)
		c.adj[id] = arena[start:len(arena):len(arena)]
	}
	return c
}

// Validate checks internal consistency (node and edge counts, strictly
// ascending rows, no self-loops, edges only between present nodes,
// symmetry) and returns a descriptive error on the first violation. It
// is used by tests and by property checks after mutation-heavy
// experiments.
func (g *Graph) Validate() error {
	if len(g.adj) != len(g.present) {
		return fmt.Errorf("graph: %d adjacency rows for %d id slots", len(g.adj), len(g.present))
	}
	nodes, count := 0, 0
	for u, row := range g.adj {
		if g.present[u] {
			nodes++
		} else if len(row) > 0 {
			return fmt.Errorf("graph: absent node %d has %d neighbors", u, len(row))
		}
		for i, v := range row {
			if i > 0 && row[i-1] >= v {
				return fmt.Errorf("graph: row of node %d not strictly ascending at %d", u, i)
			}
			if int(v) == u {
				return fmt.Errorf("graph: self-loop at node %d", u)
			}
			if !g.HasNode(int(v)) {
				return fmt.Errorf("graph: edge (%d,%d) points to missing node", u, v)
			}
			if !slices.Contains(g.adj[v], int32(u)) {
				return fmt.Errorf("graph: asymmetric edge (%d,%d)", u, v)
			}
			count++
		}
	}
	if nodes != g.nodes {
		return fmt.Errorf("graph: node count %d inconsistent with %d present ids", g.nodes, nodes)
	}
	if count != 2*g.edges {
		return fmt.Errorf("graph: edge count %d inconsistent with adjacency half-edges %d", g.edges, count)
	}
	return nil
}
