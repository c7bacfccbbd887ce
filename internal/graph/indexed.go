package graph

// Indexed is an immutable compressed-adjacency snapshot of a Graph with
// dense ids 0..N-1. Metrics run against snapshots because BFS over one
// contiguous neighbor array beats chasing per-node rows.
type Indexed struct {
	// IDs maps dense index -> original node id, sorted ascending.
	IDs []int
	// off/nbr form a CSR structure: neighbors of dense node i are
	// nbr[off[i]:off[i+1]].
	off []int32
	nbr []int32
}

// Snapshot builds an Indexed view of g. Relabelling through index is
// monotone (ids are taken in ascending order), so each copied row stays
// sorted and snapshots — and everything order-sensitive built on them,
// like the double-sweep diameter heuristic — are a pure function of the
// graph.
func (g *Graph) Snapshot() *Indexed {
	ids := g.Nodes()
	index := make([]int32, len(g.adj))
	off := make([]int32, len(ids)+1)
	for i, id := range ids {
		index[id] = int32(i)
		off[i+1] = off[i] + int32(len(g.adj[id]))
	}
	nbr := make([]int32, off[len(ids)])
	for i, id := range ids {
		row := nbr[off[i]:off[i+1]]
		for j, v := range g.adj[id] {
			row[j] = index[v]
		}
	}
	return &Indexed{IDs: ids, off: off, nbr: nbr}
}

// N reports the number of nodes in the snapshot.
func (ix *Indexed) N() int { return len(ix.IDs) }

// Degree reports the degree of dense node i.
func (ix *Indexed) Degree(i int) int { return int(ix.off[i+1] - ix.off[i]) }

// bfsScratch holds reusable BFS buffers so that metric loops allocate
// once per snapshot rather than once per source. Visited bookkeeping is
// index-stamped: stamp[i] == gen marks node i as reached by the current
// sweep, so starting a new BFS is a generation bump instead of an O(n)
// slice reset (and instead of the per-sweep map or []bool allocations
// the seed helpers paid).
type bfsScratch struct {
	dist  []int32
	stamp []uint32
	gen   uint32
	queue []int32
}

func (ix *Indexed) newScratch() *bfsScratch {
	return &bfsScratch{
		dist:  make([]int32, ix.N()),
		stamp: make([]uint32, ix.N()),
		queue: make([]int32, 0, ix.N()),
	}
}

// next advances the scratch to a fresh generation, handling the (in
// practice unreachable) uint32 wraparound with one full reset.
func (sc *bfsScratch) next() {
	sc.gen++
	if sc.gen == 0 {
		clear(sc.stamp)
		sc.gen = 1
	}
	sc.queue = sc.queue[:0]
}

// seen reports whether i was visited in the current generation.
func (sc *bfsScratch) seen(i int32) bool { return sc.stamp[i] == sc.gen }

// visit marks i visited in the current generation.
func (sc *bfsScratch) visit(i int32) { sc.stamp[i] = sc.gen }

// bfs runs a breadth-first search from src and returns (sum of distances
// to reached nodes, number of reached nodes including src, eccentricity).
// Callers reading sc.dist afterwards must gate each entry on sc.seen.
func (ix *Indexed) bfs(src int32, sc *bfsScratch) (sum int64, reached int, ecc int32) {
	sc.next()
	sc.dist[src] = 0
	sc.visit(src)
	sc.queue = append(sc.queue, src)
	reached = 1
	for head := 0; head < len(sc.queue); head++ {
		u := sc.queue[head]
		du := sc.dist[u]
		if du > ecc {
			ecc = du
		}
		sum += int64(du)
		for _, v := range ix.nbr[ix.off[u]:ix.off[u+1]] {
			if !sc.seen(v) {
				sc.visit(v)
				sc.dist[v] = du + 1
				sc.queue = append(sc.queue, v)
				reached++
			}
		}
	}
	return sum, reached, ecc
}
