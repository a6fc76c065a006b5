package graph

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// pathGraph returns 0-1-2-...-(n-1).
func pathGraph(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	return b.Build()
}

// completeGraph returns K_n.
func completeGraph(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(int32(i), int32(j))
		}
	}
	return b.Build()
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph: V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIsolatedVertices(t *testing.T) {
	g := NewBuilder(5).Build()
	if g.NumVertices() != 5 {
		t.Fatalf("V = %d, want 5", g.NumVertices())
	}
	for v := int32(0); v < 5; v++ {
		if g.Degree(v) != 0 {
			t.Errorf("Degree(%d) = %d, want 0", v, g.Degree(v))
		}
	}
}

func TestSelfLoopsDropped(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 0)
	b.AddEdge(1, 2)
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("E = %d, want 1 (self-loop must be dropped)", g.NumEdges())
	}
}

func TestDuplicateEdgesDropped(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	if g.NumEdges() != 2 {
		t.Fatalf("E = %d, want 2", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge out of range did not panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 5)
}

func TestNeighborsSorted(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(3, 5)
	b.AddEdge(3, 1)
	b.AddEdge(3, 4)
	b.AddEdge(3, 0)
	g := b.Build()
	nbrs := g.Neighbors(3)
	want := []int32{0, 1, 4, 5}
	if len(nbrs) != len(want) {
		t.Fatalf("Neighbors(3) = %v, want %v", nbrs, want)
	}
	for i := range want {
		if nbrs[i] != want[i] {
			t.Fatalf("Neighbors(3) = %v, want %v", nbrs, want)
		}
	}
}

func TestHasEdgeAndEdgeID(t *testing.T) {
	g := pathGraph(4)
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Error("HasEdge(1,2) should hold in both directions")
	}
	if g.HasEdge(0, 3) {
		t.Error("HasEdge(0,3) should be false")
	}
	id := g.EdgeID(2, 1)
	if id < 0 {
		t.Fatal("EdgeID(2,1) = -1")
	}
	e := g.Edge(id)
	if e.U != 1 || e.V != 2 {
		t.Errorf("Edge(%d) = %v, want {1 2}", id, e)
	}
	if g.EdgeID(0, 3) != -1 {
		t.Error("EdgeID(0,3) should be -1")
	}
}

func TestIncidentEdgesParallelToNeighbors(t *testing.T) {
	g := completeGraph(5)
	for v := int32(0); v < 5; v++ {
		nbrs := g.Neighbors(v)
		eids := g.IncidentEdges(v)
		if len(nbrs) != len(eids) {
			t.Fatalf("vertex %d: %d neighbors but %d incident edges", v, len(nbrs), len(eids))
		}
		for i := range nbrs {
			e := g.Edge(eids[i])
			other := e.U
			if other == v {
				other = e.V
			}
			if other != nbrs[i] {
				t.Errorf("vertex %d slot %d: edge %v does not lead to neighbor %d", v, i, e, nbrs[i])
			}
		}
	}
}

func TestCompleteGraphDegrees(t *testing.T) {
	g := completeGraph(7)
	if g.NumEdges() != 21 {
		t.Fatalf("K7 edges = %d, want 21", g.NumEdges())
	}
	for v := int32(0); v < 7; v++ {
		if g.Degree(v) != 6 {
			t.Errorf("Degree(%d) = %d, want 6", v, g.Degree(v))
		}
	}
	if g.MaxDegree() != 6 {
		t.Errorf("MaxDegree = %d, want 6", g.MaxDegree())
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder(7)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	// 5 and 6 isolated
	g := b.Build()
	labels, count := ConnectedComponents(g)
	if count != 4 {
		t.Fatalf("count = %d, want 4", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Error("0,1,2 should share a label")
	}
	if labels[3] != labels[4] {
		t.Error("3,4 should share a label")
	}
	if labels[5] == labels[6] {
		t.Error("5 and 6 should have distinct labels")
	}
}

func TestBFSDistances(t *testing.T) {
	g := pathGraph(5)
	dist := BFSDistances(g, 0)
	for i, want := range []int32{0, 1, 2, 3, 4} {
		if dist[i] != want {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], want)
		}
	}
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	g2 := b.Build()
	if d := BFSDistances(g2, 0); d[2] != -1 {
		t.Errorf("unreachable vertex distance = %d, want -1", d[2])
	}
}

func TestKHopNeighborhood(t *testing.T) {
	g := pathGraph(6)
	hood := KHopNeighborhood(g, 2, 1)
	want := map[int32]bool{1: true, 2: true, 3: true}
	if len(hood) != 3 {
		t.Fatalf("1-hop of 2 = %v, want 3 vertices", hood)
	}
	for _, v := range hood {
		if !want[v] {
			t.Errorf("unexpected vertex %d in 1-hop neighborhood", v)
		}
	}
	if h2 := KHopNeighborhood(g, 2, 2); len(h2) != 5 {
		t.Errorf("2-hop of 2 has %d vertices, want 5", len(h2))
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := completeGraph(5)
	sub, orig := InducedSubgraph(g, []int32{1, 3, 4})
	if sub.NumVertices() != 3 || sub.NumEdges() != 3 {
		t.Fatalf("induced K3: V=%d E=%d", sub.NumVertices(), sub.NumEdges())
	}
	seen := map[int32]bool{}
	for _, o := range orig {
		seen[o] = true
	}
	for _, want := range []int32{1, 3, 4} {
		if !seen[want] {
			t.Errorf("orig mapping missing %d", want)
		}
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInducedSubgraphDuplicateVertices(t *testing.T) {
	g := pathGraph(4)
	sub, orig := InducedSubgraph(g, []int32{1, 2, 1, 2})
	if sub.NumVertices() != 2 || sub.NumEdges() != 1 {
		t.Fatalf("got V=%d E=%d, want V=2 E=1", sub.NumVertices(), sub.NumEdges())
	}
	if len(orig) != 2 {
		t.Fatalf("orig = %v, want 2 entries", orig)
	}
}

func TestLargestComponent(t *testing.T) {
	b := NewBuilder(8)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3) // component of size 4
	b.AddEdge(5, 6) // component of size 2
	g := b.Build()
	lc, orig := LargestComponent(g)
	if lc.NumVertices() != 4 {
		t.Fatalf("largest component V = %d, want 4", lc.NumVertices())
	}
	if len(orig) != 4 {
		t.Fatalf("orig len = %d, want 4", len(orig))
	}
}

func TestReadEdgeList(t *testing.T) {
	input := `# comment
% another comment
10 20
20 30
10 20
5 5
30 10
`
	g, orig, err := ReadEdgeList(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 {
		t.Fatalf("V = %d, want 3", g.NumVertices())
	}
	if g.NumEdges() != 3 {
		t.Fatalf("E = %d, want 3 (triangle)", g.NumEdges())
	}
	if orig[0] != 10 || orig[1] != 20 || orig[2] != 30 {
		t.Errorf("orig = %v, want [10 20 30]", orig)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, bad := range []string{"abc def\n", "1\n", "-1 2\n", "1 xyz\n"} {
		if _, _, err := ReadEdgeList(strings.NewReader(bad)); err == nil {
			t.Errorf("input %q: want error, got nil", bad)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	g := completeGraph(6)
	// A SNAP-style listing: a comment header, then one edge per line.
	var sb strings.Builder
	fmt.Fprintf(&sb, "# Nodes: %d Edges: %d\n", g.NumVertices(), g.NumEdges())
	for _, e := range g.Edges() {
		fmt.Fprintf(&sb, "%d\t%d\n", e.U, e.V)
	}
	g2, _, err := ReadEdgeList(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: V=%d E=%d, want V=%d E=%d",
			g2.NumVertices(), g2.NumEdges(), g.NumVertices(), g.NumEdges())
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := completeGraph(4)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	g.adj[0], g.adj[1] = g.adj[1], g.adj[0] // break sortedness
	if err := g.Validate(); err == nil {
		t.Error("Validate missed corrupted adjacency ordering")
	}
}

func TestQuickRandomGraphInvariants(t *testing.T) {
	// Property: for any random edge multiset, the built graph passes
	// Validate, has symmetric adjacency, and degree sums to 2|E|.
	f := func(seed int64, nEdges uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		b := NewBuilder(n)
		for i := 0; i < int(nEdges); i++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		g := b.Build()
		if err := g.Validate(); err != nil {
			return false
		}
		degSum := 0
		for v := int32(0); v < int32(n); v++ {
			degSum += g.Degree(v)
			for _, u := range g.Neighbors(v) {
				if !g.HasEdge(u, v) {
					return false
				}
			}
		}
		return degSum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickBFSTriangleInequality(t *testing.T) {
	// Property: BFS distances satisfy |dist(u)-dist(v)| <= 1 across
	// any edge (u,v) in the same component.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(25)
		b := NewBuilder(n)
		for i := 0; i < 2*n; i++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		g := b.Build()
		dist := BFSDistances(g, 0)
		for _, e := range g.Edges() {
			du, dv := dist[e.U], dist[e.V]
			if (du < 0) != (dv < 0) {
				return false // one endpoint reachable, the other not
			}
			if du >= 0 {
				diff := du - dv
				if diff < -1 || diff > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
