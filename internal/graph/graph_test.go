package graph

import (
	"strings"
	"testing"
	"testing/quick"

	"onionbots/internal/sim"
)

func TestAddRemoveNodeEdgeBasics(t *testing.T) {
	g := New()
	g.AddNode(1)
	g.AddNode(1) // idempotent
	if g.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d, want 1", g.NumNodes())
	}
	if !g.AddEdge(1, 2) {
		t.Fatal("AddEdge(1,2) = false, want true")
	}
	if g.AddEdge(1, 2) || g.AddEdge(2, 1) {
		t.Fatal("duplicate AddEdge returned true")
	}
	if g.AddEdge(3, 3) {
		t.Fatal("self-loop AddEdge returned true")
	}
	if g.HasNode(3) {
		t.Fatal("rejected self-loop should not create its node")
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("nodes=%d edges=%d, want 2, 1", g.NumNodes(), g.NumEdges())
	}
	if !g.HasEdge(2, 1) {
		t.Fatal("HasEdge not symmetric")
	}
	if !g.RemoveEdge(1, 2) || g.RemoveEdge(1, 2) {
		t.Fatal("RemoveEdge idempotency broken")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveNodeReturnsSortedNeighbors(t *testing.T) {
	g := New()
	g.AddEdge(5, 9)
	g.AddEdge(5, 1)
	g.AddEdge(5, 7)
	nbrs := g.RemoveNode(5)
	want := []int{1, 7, 9}
	if len(nbrs) != 3 {
		t.Fatalf("neighbors = %v, want %v", nbrs, want)
	}
	for i := range want {
		if nbrs[i] != want[i] {
			t.Fatalf("neighbors = %v, want %v (sorted)", nbrs, want)
		}
	}
	if g.HasNode(5) || g.NumEdges() != 0 {
		t.Fatal("RemoveNode left residue")
	}
	if g.RemoveNode(5) != nil {
		t.Fatal("removing absent node should return nil")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeAndNeighborsSorted(t *testing.T) {
	g := Star(5)
	if g.Degree(0) != 4 {
		t.Fatalf("star center degree = %d, want 4", g.Degree(0))
	}
	nbrs := g.Neighbors(0)
	for i := 1; i < len(nbrs); i++ {
		if nbrs[i-1] >= nbrs[i] {
			t.Fatalf("Neighbors not sorted: %v", nbrs)
		}
	}
	if g.Degree(99) != 0 {
		t.Fatal("absent node degree != 0")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := Ring(6)
	c := g.Clone()
	c.RemoveNode(0)
	if g.NumNodes() != 6 || g.NumEdges() != 6 {
		t.Fatal("mutating clone affected original")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMaxAvgDegree(t *testing.T) {
	tests := []struct {
		name   string
		g      *Graph
		maxDeg int
		avgDeg float64
	}{
		{"empty", New(), 0, 0},
		{"ring10", Ring(10), 2, 2},
		{"star5", Star(5), 4, 8.0 / 5},
		{"complete4", Complete(4), 3, 3},
		{"path3", Path(3), 2, 4.0 / 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.MaxDegree(); got != tt.maxDeg {
				t.Errorf("MaxDegree = %d, want %d", got, tt.maxDeg)
			}
			if got := tt.g.AvgDegree(); got != tt.avgDeg {
				t.Errorf("AvgDegree = %v, want %v", got, tt.avgDeg)
			}
		})
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	// Corrupt the representation directly: drop one half of an edge.
	g := New()
	g.AddEdge(1, 2)
	g.adj[2] = g.adj[2][:0]
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted an asymmetric edge")
	}

	// Swap a row out of order; the edge set itself stays symmetric.
	g = Star(4)
	row := g.adj[0]
	row[0], row[1] = row[1], row[0]
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "ascending") {
		t.Fatalf("Validate on an unsorted row = %v, want an ascending-order error", err)
	}
}

func TestGraphPropertyRandomMutations(t *testing.T) {
	// Random interleavings of mutations always leave a valid graph.
	f := func(seed uint64, opsRaw uint8) bool {
		rng := sim.NewRNG(seed)
		g := New()
		ops := int(opsRaw)%200 + 20
		for i := 0; i < ops; i++ {
			u, v := rng.Intn(30), rng.Intn(30)
			switch rng.Intn(4) {
			case 0:
				g.AddEdge(u, v)
			case 1:
				g.RemoveEdge(u, v)
			case 2:
				g.AddNode(u)
			case 3:
				g.RemoveNode(u)
			}
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConnectedSparseAndNegativeIDs(t *testing.T) {
	// Ids index the storage, so a negative id is a programming error.
	for _, add := range []func(*Graph){
		func(g *Graph) { g.AddNode(-1) },
		func(g *Graph) { g.AddEdge(-5, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("negative id did not panic")
				}
			}()
			add(New())
		}()
	}

	// Gapped ids leave absent slots between nodes; connectivity must
	// ignore them and agree with the snapshot-based component count.
	g := New()
	g.AddEdge(0, 900)
	g.AddEdge(900, 5)
	if !g.Connected() {
		t.Fatal("3-node path over ids {0, 5, 900} reported disconnected")
	}
	g.AddNode(42)
	if g.Connected() {
		t.Fatal("graph with isolated node reported connected")
	}
	if got := NumComponents(g); got != 2 {
		t.Fatalf("NumComponents = %d, want 2", got)
	}
	g.RemoveNode(42)
	g.RemoveNode(0)
	if !g.Connected() || g.NumNodes() != 2 {
		t.Fatalf("after removals: Connected=%v NumNodes=%d, want true, 2", g.Connected(), g.NumNodes())
	}
}

func TestConnectedMatchesComponents(t *testing.T) {
	rng := sim.NewRNG(31)
	g, err := RandomRegular(60, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	perm := rng.Perm(60)
	for i := 0; i < 57; i++ {
		g.RemoveNode(perm[i])
		want := NumComponents(g) <= 1
		if got := g.Connected(); got != want {
			t.Fatalf("after %d deletions: Connected=%v, NumComponents says %v", i+1, got, want)
		}
	}
}
