package measures

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func completeGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(int32(i), int32(j))
		}
	}
	return b.Build()
}

func pathGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	return b.Build()
}

func starGraph(leaves int) *graph.Graph {
	b := graph.NewBuilder(leaves + 1)
	for i := 1; i <= leaves; i++ {
		b.AddEdge(0, int32(i))
	}
	return b.Build()
}

func cycleGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32((i+1)%n))
	}
	return b.Build()
}

func randomGraph(seed int64, n int, density float64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < int(density*float64(n)); i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.Build()
}

// --- k-core ---

func TestCoreNumbersComplete(t *testing.T) {
	// Every vertex of K_n has core number n-1.
	core := CoreNumbers(completeGraph(6))
	for v, c := range core {
		if c != 5 {
			t.Errorf("K6 core[%d] = %d, want 5", v, c)
		}
	}
}

func TestCoreNumbersPath(t *testing.T) {
	// A path has core number 1 everywhere (degeneracy 1).
	core := CoreNumbers(pathGraph(10))
	for v, c := range core {
		if c != 1 {
			t.Errorf("path core[%d] = %d, want 1", v, c)
		}
	}
}

func TestCoreNumbersStar(t *testing.T) {
	core := CoreNumbers(starGraph(8))
	for v, c := range core {
		if c != 1 {
			t.Errorf("star core[%d] = %d, want 1", v, c)
		}
	}
}

func TestCoreNumbersCliqueWithTail(t *testing.T) {
	// K5 (vertices 0..4) plus a pendant path 4-5-6.
	b := graph.NewBuilder(7)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			b.AddEdge(int32(i), int32(j))
		}
	}
	b.AddEdge(4, 5)
	b.AddEdge(5, 6)
	core := CoreNumbers(b.Build())
	for v := 0; v < 5; v++ {
		if core[v] != 4 {
			t.Errorf("clique vertex %d core = %d, want 4", v, core[v])
		}
	}
	if core[5] != 1 || core[6] != 1 {
		t.Errorf("tail cores = %d, %d, want 1, 1", core[5], core[6])
	}
}

func TestCoreNumbersIsolated(t *testing.T) {
	core := CoreNumbers(graph.NewBuilder(3).Build())
	for v, c := range core {
		if c != 0 {
			t.Errorf("isolated core[%d] = %d, want 0", v, c)
		}
	}
}

func TestCoreNumbersEmptyGraph(t *testing.T) {
	if got := CoreNumbers(graph.NewBuilder(0).Build()); len(got) != 0 {
		t.Errorf("empty graph core numbers = %v", got)
	}
}

// degeneracy is the largest core number of g, or 0 without vertices.
func degeneracy(g *graph.Graph) int32 { return slices.Max(append(CoreNumbers(g), 0)) }

// kCoreSubgraph returns the vertices of the k-core: those whose core
// number is at least k.
func kCoreSubgraph(g *graph.Graph, k int32) []int32 {
	var vs []int32
	for v, c := range CoreNumbers(g) {
		if c >= k {
			vs = append(vs, int32(v))
		}
	}
	return vs
}

func TestDegeneracy(t *testing.T) {
	if d := degeneracy(completeGraph(7)); d != 6 {
		t.Errorf("K7 degeneracy = %d, want 6", d)
	}
	if d := degeneracy(cycleGraph(9)); d != 2 {
		t.Errorf("C9 degeneracy = %d, want 2", d)
	}
}

// coreNumbersBrute recomputes core numbers by repeated removal, the
// literal reading of Definition 4, as an oracle.
func coreNumbersBrute(g *graph.Graph) []int32 {
	n := g.NumVertices()
	core := make([]int32, n)
	for k := int32(1); ; k++ {
		// Iteratively remove vertices with degree < k.
		alive := make([]bool, n)
		deg := make([]int32, n)
		for v := 0; v < n; v++ {
			alive[v] = true
			deg[v] = int32(g.Degree(int32(v)))
		}
		for changed := true; changed; {
			changed = false
			for v := int32(0); v < int32(n); v++ {
				if alive[v] && deg[v] < k {
					alive[v] = false
					changed = true
					for _, u := range g.Neighbors(v) {
						if alive[u] {
							deg[u]--
						}
					}
				}
			}
		}
		any := false
		for v := 0; v < n; v++ {
			if alive[v] {
				core[v] = k
				any = true
			}
		}
		if !any {
			return core
		}
	}
}

func TestCoreNumbersMatchBruteForce(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := randomGraph(seed, 50, 3)
		got := CoreNumbers(g)
		want := coreNumbersBrute(g)
		for v := range got {
			if got[v] != want[v] {
				t.Fatalf("seed %d: core[%d] = %d, brute = %d", seed, v, got[v], want[v])
			}
		}
	}
}

func TestQuickKCoreSubgraphInternalDegree(t *testing.T) {
	// Property (matches Definition 4): inside the k-core subgraph,
	// every vertex has at least k neighbors that are also in it.
	f := func(seed int64) bool {
		g := randomGraph(seed, 40, 2.5)
		core := CoreNumbers(g)
		k := degeneracy(g)
		if k == 0 {
			return true
		}
		in := make(map[int32]bool)
		for _, v := range kCoreSubgraph(g, k) {
			in[v] = true
		}
		for v := range in {
			cnt := 0
			for _, u := range g.Neighbors(v) {
				if in[u] {
					cnt++
				}
			}
			if int32(cnt) < k {
				return false
			}
		}
		_ = core
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// --- triangles & clustering ---

func TestEdgeTrianglesComplete(t *testing.T) {
	// In K5 every edge is in 3 triangles.
	g := completeGraph(5)
	for e, c := range EdgeTriangles(g) {
		if c != 3 {
			t.Errorf("K5 edge %d triangles = %d, want 3", e, c)
		}
	}
}

func TestVertexTrianglesComplete(t *testing.T) {
	// In K5 every vertex is in C(4,2)=6 triangles.
	for v, c := range VertexTriangles(completeGraph(5)) {
		if c != 6 {
			t.Errorf("K5 vertex %d triangles = %d, want 6", v, c)
		}
	}
}

func TestTotalTriangles(t *testing.T) {
	if tt := TotalTriangles(completeGraph(6)); tt != 20 {
		t.Errorf("K6 triangles = %d, want 20", tt)
	}
	if tt := TotalTriangles(pathGraph(10)); tt != 0 {
		t.Errorf("path triangles = %d, want 0", tt)
	}
	if tt := TotalTriangles(cycleGraph(3)); tt != 1 {
		t.Errorf("C3 triangles = %d, want 1", tt)
	}
}

func TestTrianglesConsistency(t *testing.T) {
	// Σ_v tri(v) = 3·#triangles = Σ_e tri(e).
	for seed := int64(0); seed < 8; seed++ {
		g := randomGraph(seed, 40, 3)
		var vt, et int64
		for _, c := range VertexTriangles(g) {
			vt += int64(c)
		}
		for _, c := range EdgeTriangles(g) {
			et += int64(c)
		}
		if vt != et {
			t.Fatalf("seed %d: Σ vertex tri %d != Σ edge tri %d", seed, vt, et)
		}
		if vt != 3*TotalTriangles(g) {
			t.Fatalf("seed %d: Σ vertex tri %d != 3·total %d", seed, vt, TotalTriangles(g))
		}
	}
}

func TestClusteringCoefficients(t *testing.T) {
	cc := ClusteringCoefficients(completeGraph(5))
	for v, c := range cc {
		if math.Abs(c-1) > 1e-12 {
			t.Errorf("K5 clustering[%d] = %g, want 1", v, c)
		}
	}
	cc = ClusteringCoefficients(starGraph(5))
	for v, c := range cc {
		if c != 0 {
			t.Errorf("star clustering[%d] = %g, want 0", v, c)
		}
	}
}

// --- k-truss ---

func TestTrussNumbersComplete(t *testing.T) {
	// K5: every edge in 3 triangles; the whole graph is a 3-truss.
	for e, kt := range TrussNumbers(completeGraph(5)) {
		if kt != 3 {
			t.Errorf("K5 truss[%d] = %d, want 3", e, kt)
		}
	}
}

func TestTrussNumbersTriangleFree(t *testing.T) {
	for e, kt := range TrussNumbers(pathGraph(8)) {
		if kt != 0 {
			t.Errorf("path truss[%d] = %d, want 0", e, kt)
		}
	}
}

func TestTrussNumbersCliquePlusBridge(t *testing.T) {
	// Two K4s joined by a bridge: K4 edges have truss 2, bridge 0.
	b := graph.NewBuilder(8)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdge(int32(i), int32(j))
			b.AddEdge(int32(i+4), int32(j+4))
		}
	}
	b.AddEdge(3, 4)
	g := b.Build()
	truss := TrussNumbers(g)
	bridge := g.EdgeID(3, 4)
	for e, kt := range truss {
		if int32(e) == bridge {
			if kt != 0 {
				t.Errorf("bridge truss = %d, want 0", kt)
			}
		} else if kt != 2 {
			t.Errorf("K4 edge %d truss = %d, want 2", e, kt)
		}
	}
}

// trussNumbersBrute recomputes truss numbers by repeated removal.
func trussNumbersBrute(g *graph.Graph) []int32 {
	m := g.NumEdges()
	truss := make([]int32, m)
	for k := int32(1); ; k++ {
		alive := make([]bool, m)
		for e := range alive {
			alive[e] = true
		}
		support := func(e int32) int32 {
			ed := g.Edge(e)
			var s int32
			commonNeighbors(g.Neighbors(ed.U), g.Neighbors(ed.V), func(w int32) {
				if alive[g.EdgeID(ed.U, w)] && alive[g.EdgeID(ed.V, w)] {
					s++
				}
			})
			return s
		}
		for changed := true; changed; {
			changed = false
			for e := int32(0); e < int32(m); e++ {
				if alive[e] && support(e) < k {
					alive[e] = false
					changed = true
				}
			}
		}
		any := false
		for e := 0; e < m; e++ {
			if alive[e] {
				truss[e] = k
				any = true
			}
		}
		if !any {
			return truss
		}
	}
}

func TestTrussNumbersMatchBruteForce(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := randomGraph(seed, 25, 3.5)
		got := TrussNumbers(g)
		want := trussNumbersBrute(g)
		for e := range got {
			if got[e] != want[e] {
				t.Fatalf("seed %d: truss[%d] = %d, brute = %d", seed, e, got[e], want[e])
			}
		}
	}
}

// maxTruss is the largest truss number of g, or 0 without edges.
func maxTruss(g *graph.Graph) int32 { return slices.Max(append(TrussNumbers(g), 0)) }

// kTrussSubgraph returns the edge IDs of the k-truss: those whose truss
// number is at least k.
func kTrussSubgraph(g *graph.Graph, k int32) []int32 {
	var es []int32
	for e, t := range TrussNumbers(g) {
		if t >= k {
			es = append(es, int32(e))
		}
	}
	return es
}

func TestQuickKTrussInternalSupport(t *testing.T) {
	// Property (Definition 5): within the max-K truss subgraph, every
	// edge participates in at least K triangles of the subgraph.
	f := func(seed int64) bool {
		g := randomGraph(seed, 30, 3.0)
		k := maxTruss(g)
		if k == 0 {
			return true
		}
		in := map[int32]bool{}
		for _, e := range kTrussSubgraph(g, k) {
			in[e] = true
		}
		for e := range in {
			ed := g.Edge(e)
			cnt := int32(0)
			commonNeighbors(g.Neighbors(ed.U), g.Neighbors(ed.V), func(w int32) {
				if in[g.EdgeID(ed.U, w)] && in[g.EdgeID(ed.V, w)] {
					cnt++
				}
			})
			if cnt < k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// --- centralities ---

func TestDegreeCentrality(t *testing.T) {
	dc := DegreeCentrality(starGraph(6))
	if dc[0] != 6 {
		t.Errorf("hub degree = %g, want 6", dc[0])
	}
	for v := 1; v <= 6; v++ {
		if dc[v] != 1 {
			t.Errorf("leaf %d degree = %g, want 1", v, dc[v])
		}
	}
}

func TestBetweennessPath(t *testing.T) {
	// Path 0-1-2-3-4: betweenness of middle vertex 2 = 4 pairs
	// ({0,3},{0,4},{1,3},{1,4}) pass through it... precisely, pairs
	// separated by 2: (0,3),(0,4),(1,3),(1,4) → 4.
	bc := BetweennessCentrality(pathGraph(5))
	if math.Abs(bc[2]-4) > 1e-9 {
		t.Errorf("bc[2] = %g, want 4", bc[2])
	}
	if math.Abs(bc[0]) > 1e-9 || math.Abs(bc[4]) > 1e-9 {
		t.Errorf("endpoints bc = %g, %g, want 0", bc[0], bc[4])
	}
	if math.Abs(bc[1]-3) > 1e-9 {
		t.Errorf("bc[1] = %g, want 3", bc[1])
	}
}

func TestBetweennessStar(t *testing.T) {
	// Star with L leaves: hub lies on all C(L,2) leaf pairs.
	bc := BetweennessCentrality(starGraph(5))
	if math.Abs(bc[0]-10) > 1e-9 {
		t.Errorf("hub bc = %g, want 10", bc[0])
	}
}

func TestBetweennessCompleteIsZero(t *testing.T) {
	for v, b := range BetweennessCentrality(completeGraph(5)) {
		if math.Abs(b) > 1e-9 {
			t.Errorf("K5 bc[%d] = %g, want 0", v, b)
		}
	}
}

func TestBetweennessCycleUniform(t *testing.T) {
	bc := BetweennessCentrality(cycleGraph(7))
	for v := 1; v < 7; v++ {
		if math.Abs(bc[v]-bc[0]) > 1e-9 {
			t.Errorf("C7 bc not uniform: bc[%d]=%g, bc[0]=%g", v, bc[v], bc[0])
		}
	}
}

func TestApproxBetweennessFullSampleExact(t *testing.T) {
	g := randomGraph(3, 30, 2.5)
	exact := BetweennessCentrality(g)
	approx := ApproxBetweennessCentrality(g, 30, 1)
	for v := range exact {
		if math.Abs(exact[v]-approx[v]) > 1e-9 {
			t.Fatalf("full-sample approx differs at %d: %g vs %g", v, approx[v], exact[v])
		}
	}
}

func TestApproxBetweennessCorrelatesWithExact(t *testing.T) {
	g := randomGraph(9, 120, 3)
	exact := BetweennessCentrality(g)
	approx := ApproxBetweennessCentrality(g, 60, 7)
	// Rank correlation proxy: the top exact vertex should be in the
	// upper half of the approx ranking.
	top := 0
	for v := range exact {
		if exact[v] > exact[top] {
			top = v
		}
	}
	higher := 0
	for v := range approx {
		if approx[v] > approx[top] {
			higher++
		}
	}
	if higher > len(approx)/2 {
		t.Errorf("top exact vertex ranked %d-th by approx", higher)
	}
}

func TestClosenessPath(t *testing.T) {
	cl := ClosenessCentrality(pathGraph(5))
	// Middle vertex is closest to everyone.
	for v := 0; v < 5; v++ {
		if v != 2 && cl[v] > cl[2] {
			t.Errorf("closeness[%d]=%g exceeds middle %g", v, cl[v], cl[2])
		}
	}
}

func TestClosenessIsolated(t *testing.T) {
	cl := ClosenessCentrality(graph.NewBuilder(3).Build())
	for v, c := range cl {
		if c != 0 {
			t.Errorf("isolated closeness[%d] = %g, want 0", v, c)
		}
	}
}

func TestHarmonicStar(t *testing.T) {
	// Hub: L neighbors at distance 1 → L. Leaf: 1 + (L-1)/2.
	h := HarmonicCentrality(starGraph(4))
	if math.Abs(h[0]-4) > 1e-9 {
		t.Errorf("hub harmonic = %g, want 4", h[0])
	}
	if math.Abs(h[1]-(1+1.5)) > 1e-9 {
		t.Errorf("leaf harmonic = %g, want 2.5", h[1])
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomGraph(seed, 60, 2.5)
		pr := PageRank(g, 0.85, 1e-10, 200)
		var sum float64
		for _, p := range pr {
			sum += p
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("seed %d: PageRank sums to %g", seed, sum)
		}
	}
}

func TestPageRankUniformOnRegular(t *testing.T) {
	pr := PageRank(cycleGraph(8), 0.85, 1e-12, 500)
	for v := 1; v < 8; v++ {
		if math.Abs(pr[v]-pr[0]) > 1e-9 {
			t.Errorf("regular graph PageRank not uniform: %g vs %g", pr[v], pr[0])
		}
	}
}

func TestPageRankHubDominates(t *testing.T) {
	pr := PageRank(starGraph(10), 0.85, 1e-12, 500)
	for v := 1; v <= 10; v++ {
		if pr[v] >= pr[0] {
			t.Errorf("leaf %d PageRank %g >= hub %g", v, pr[v], pr[0])
		}
	}
}

func TestPageRankEmptyGraph(t *testing.T) {
	if pr := PageRank(graph.NewBuilder(0).Build(), 0.85, 1e-8, 10); pr != nil {
		t.Errorf("PageRank of empty graph = %v, want nil", pr)
	}
}

func TestFloatWrappers(t *testing.T) {
	g := completeGraph(4)
	cf := CoreNumbersFloat(g)
	for _, c := range cf {
		if c != 3 {
			t.Errorf("CoreNumbersFloat = %v", cf)
		}
	}
	tf := TrussNumbersFloat(g)
	for _, kt := range tf {
		if kt != 2 {
			t.Errorf("TrussNumbersFloat = %v", tf)
		}
	}
	td := TriangleDensityField(g)
	for _, d := range td {
		if d != 3 {
			t.Errorf("TriangleDensityField = %v", td)
		}
	}
}
