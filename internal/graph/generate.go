package graph

import (
	"errors"
	"fmt"

	"onionbots/internal/sim"
)

// ErrInfeasibleRegular reports parameters for which no simple k-regular
// graph exists.
var ErrInfeasibleRegular = errors.New("graph: no simple k-regular graph with these parameters")

// RandomRegular generates a uniform-ish random simple k-regular graph on
// nodes 0..n-1 using the configuration model: pair up n*k stubs at
// random, then remove self-loops and parallel edges with double-edge
// swaps against randomly chosen good edges. This is the standard
// practical construction for the sizes in the paper (n up to 15000,
// k up to 15).
//
// Requirements: n > k >= 1 and n*k even.
func RandomRegular(n, k int, rng *sim.RNG) (*Graph, error) {
	if k < 1 || n <= k {
		return nil, fmt.Errorf("%w: n=%d k=%d (need n > k >= 1)", ErrInfeasibleRegular, n, k)
	}
	if n*k%2 != 0 {
		return nil, fmt.Errorf("%w: n=%d k=%d (n*k must be even)", ErrInfeasibleRegular, n, k)
	}

	const maxRestarts = 100
	for attempt := 0; attempt < maxRestarts; attempt++ {
		g, ok := tryRegular(n, k, rng)
		if ok {
			return g, nil
		}
	}
	return nil, fmt.Errorf("graph: random regular generation failed after %d restarts (n=%d k=%d)", maxRestarts, n, k)
}

func tryRegular(n, k int, rng *sim.RNG) (*Graph, bool) {
	stubs := make([]int, 0, n*k)
	for v := 0; v < n; v++ {
		for i := 0; i < k; i++ {
			stubs = append(stubs, v)
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })

	g := newDense(n, k)
	// edgeList mirrors g's edges so we can pick a uniform random edge in
	// O(1) during repair swaps.
	type edge struct{ u, v int }
	edgeList := make([]edge, 0, n*k/2)
	addEdge := func(u, v int) bool {
		if g.AddEdge(u, v) {
			edgeList = append(edgeList, edge{u, v})
			return true
		}
		return false
	}

	var bad []edge // self-loops and duplicates left over from pairing
	for i := 0; i < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u == v || g.HasEdge(u, v) {
			bad = append(bad, edge{u, v})
			continue
		}
		addEdge(u, v)
	}

	// Repair each bad pairing with double-edge swaps: pick a random good
	// edge (x, y) and replace {bad(u,v), (x,y)} with {(u,x), (v,y)} when
	// that keeps the graph simple.
	const triesPerBad = 2000
	for len(bad) > 0 {
		b := bad[len(bad)-1]
		repaired := false
		for try := 0; try < triesPerBad; try++ {
			if len(edgeList) == 0 {
				break
			}
			ei := rng.Intn(len(edgeList))
			e := edgeList[ei]
			x, y := e.u, e.v
			if rng.Bool(0.5) {
				x, y = y, x
			}
			u, v := b.u, b.v
			if u == x || u == y || v == x || v == y {
				continue
			}
			if g.HasEdge(u, x) || g.HasEdge(v, y) {
				continue
			}
			// Commit the swap.
			g.RemoveEdge(e.u, e.v)
			edgeList[ei] = edgeList[len(edgeList)-1]
			edgeList = edgeList[:len(edgeList)-1]
			addEdge(u, x)
			addEdge(v, y)
			repaired = true
			break
		}
		if !repaired {
			return nil, false
		}
		bad = bad[:len(bad)-1]
	}

	// The pairing can still leave a node short if its bad stubs involved
	// duplicates of one another; verify regularity before accepting.
	for v := 0; v < n; v++ {
		if g.Degree(v) != k {
			return nil, false
		}
	}
	return g, true
}

// Ring returns the n-cycle 0-1-...-(n-1)-0. Used by tests and the Fig 3
// walkthrough scaffolding.
func Ring(n int) *Graph {
	g := New()
	for v := 0; v < n; v++ {
		g.AddNode(v)
	}
	for v := 0; v < n; v++ {
		g.AddEdge(v, (v+1)%n)
	}
	return g
}

// Complete returns the complete graph on n nodes.
func Complete(n int) *Graph {
	g := New()
	for v := 0; v < n; v++ {
		g.AddNode(v)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(u, v)
		}
	}
	return g
}

// Path returns the path graph 0-1-...-(n-1).
func Path(n int) *Graph {
	g := New()
	for v := 0; v < n; v++ {
		g.AddNode(v)
	}
	for v := 0; v+1 < n; v++ {
		g.AddEdge(v, v+1)
	}
	return g
}

// Star returns a star with center 0 and n-1 leaves.
func Star(n int) *Graph {
	g := New()
	for v := 0; v < n; v++ {
		g.AddNode(v)
	}
	for v := 1; v < n; v++ {
		g.AddEdge(0, v)
	}
	return g
}
