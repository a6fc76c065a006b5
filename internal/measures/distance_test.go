package measures

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/par"
)

// disconnectedGraph returns a graph with several components and
// isolated vertices: two random blobs plus untouched tail vertices.
func disconnectedGraph(seed int64, n int) *graph.Graph {
	b := graph.NewBuilder(n)
	third := int32(n / 3)
	g1 := randomGraph(seed, int(third), 2.0)
	for _, e := range g1.Edges() {
		b.AddEdge(e.U, e.V)
	}
	g2 := randomGraph(seed+100, int(third), 2.0)
	for _, e := range g2.Edges() {
		b.AddEdge(e.U+third, e.V+third)
	}
	// Vertices in [2·third, n) stay isolated.
	return b.Build()
}

// harmonicLevelFoldReference computes harmonic centrality from naive
// per-source BFS distances folded by level counts in ascending level
// order — the exact fold the MS-BFS kernels implement — so the oracle
// comparison is bitwise, not tolerance-based.
func harmonicLevelFoldReference(g *graph.Graph) []float64 {
	n := g.NumVertices()
	out := make([]float64, n)
	for v := 0; v < n; v++ {
		dist := graph.BFSDistances(g, int32(v))
		var counts []int64
		for _, d := range dist {
			if d <= 0 {
				continue
			}
			for int(d) > len(counts) {
				counts = append(counts, 0)
			}
			counts[d-1]++
		}
		var sum float64
		for l, c := range counts {
			if c != 0 {
				sum += float64(c) / float64(l+1)
			}
		}
		out[v] = sum
	}
	return out
}

// oracleGraphs is the shared fuzz corpus: random graphs across
// densities, disconnected graphs with isolated vertices, and the
// structured shapes (path, star, complete) that stress level depth and
// width.
func oracleGraphs() map[string]*graph.Graph {
	gs := map[string]*graph.Graph{
		"path":     pathGraph(90),
		"star":     starGraph(70),
		"complete": completeGraph(40),
		"isolated": graph.NewBuilder(17).Build(),
		"empty":    graph.NewBuilder(0).Build(),
	}
	for seed := int64(0); seed < 5; seed++ {
		gs[string(rune('a'+seed))+"-sparse"] = randomGraph(seed, 80+int(seed)*41, 1.2)
		gs[string(rune('a'+seed))+"-dense"] = randomGraph(seed+50, 80+int(seed)*41, 5.0)
		gs[string(rune('a'+seed))+"-disconnected"] = disconnectedGraph(seed, 100+int(seed)*23)
	}
	return gs
}

// TestClosenessMSBFSBitIdenticalToPerSource is the MS-BFS acceptance
// oracle: the batched kernel's closeness field equals the per-source
// oracle bit for bit on every corpus graph, for every worker count —
// the fold's integer sums are exact in any accumulation order.
func TestClosenessMSBFSBitIdenticalToPerSource(t *testing.T) {
	for name, g := range oracleGraphs() {
		want := PerSourceClosenessCentrality(g)
		if got := ClosenessCentrality(g); !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: MS-BFS closeness diverges from the per-source oracle", name)
		}
		for w := 1; w <= 8; w++ {
			if got := msbfsFields(g, distSel{close: true}, w).clo; !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: workers=%d MS-BFS closeness diverges from the oracle", name, w)
			}
		}
	}
}

// TestHarmonicMSBFSMatchesLevelFoldExactly pins harmonic against the
// level-count fold of naive BFS distances bitwise, and against the
// old vertex-order fold up to floating-point summation order.
func TestHarmonicMSBFSMatchesLevelFoldExactly(t *testing.T) {
	for name, g := range oracleGraphs() {
		want := harmonicLevelFoldReference(g)
		if got := HarmonicCentrality(g); !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: MS-BFS harmonic diverges bitwise from the level-fold oracle", name)
		}
		for w := 1; w <= 8; w++ {
			if got := msbfsFields(g, distSel{harm: true}, w).har; !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: workers=%d MS-BFS harmonic diverges from the level-fold oracle", name, w)
			}
		}
		baseline := PerSourceHarmonicCentrality(g)
		got := HarmonicCentrality(g)
		for v := range baseline {
			diff := math.Abs(got[v] - baseline[v])
			if diff > 1e-12*math.Max(1, math.Abs(baseline[v])) {
				t.Fatalf("%s: harmonic[%d] = %g vs per-source oracle %g — beyond summation-order slack",
					name, v, got[v], baseline[v])
			}
		}
	}
}

// TestSharedDistanceFieldsOneTraversal checks the multi-field pass:
// closeness and harmonic from one shared traversal are bit-identical
// to the fields computed alone, and measures that are neither
// distance-based nor Brandes are refused.
func TestSharedDistanceFieldsOneTraversal(t *testing.T) {
	single := map[string]func(*graph.Graph) []float64{
		"closeness":    ClosenessCentrality,
		"harmonic":     HarmonicCentrality,
		"eccentricity": Eccentricity,
		"khop":         KHopSize,
	}
	for _, tc := range []struct {
		g     *graph.Graph
		names []string
	}{
		{randomGraph(21, 300, 2.5), []string{"closeness", "harmonic"}},
		// Above par.SerialCutoff, so the shared pass runs multi-worker
		// wherever GOMAXPROCS allows.
		{randomGraph(11, par.SerialCutoff+700, 2.2), []string{"closeness", "harmonic", "eccentricity", "khop"}},
	} {
		fields, ok := SharedDistanceFields(tc.g, tc.names)
		if !ok {
			t.Fatalf("%v must be computable in one shared pass", tc.names)
		}
		for _, name := range tc.names {
			if !reflect.DeepEqual(fields[name], single[name](tc.g)) {
				t.Fatalf("|V|=%d: shared-pass %s diverges from the standalone kernel", tc.g.NumVertices(), name)
			}
		}
	}
	g := randomGraph(21, 300, 2.5)
	if _, ok := SharedDistanceFields(g, []string{"closeness", "kcore"}); ok {
		t.Fatal("kcore is not distance-based; the shared pass must refuse it")
	}
	if !SharedPass("closeness") || !SharedPass("harmonic") || SharedPass("kcore") {
		t.Fatal("SharedPass misclassifies the registry")
	}
	if !SharedPass("closeness", "harmonic") || !SharedPass("betweenness", "closeness") ||
		!SharedPass("harmonic", "betweenness-sampled") || SharedPass("closeness", "kcore") ||
		SharedPass("betweenness", "betweenness-sampled") || SharedPass("closeness", "edgebetweenness") {
		t.Fatal("SharedPass misclassifies a pairing")
	}
}

// TestPartitionBudgetDistanceFieldsBitwise pins that scheduling never
// changes bits: the four-field shared MS-BFS pass on a graph above
// par.SerialCutoff returns the same closeness, harmonic, eccentricity
// and khop fields for every worker count as for one worker.
func TestPartitionBudgetDistanceFieldsBitwise(t *testing.T) {
	g := randomGraph(11, par.SerialCutoff+700, 2.2)
	all := distSel{close: true, harm: true, ecc: true, khop: true}
	want := msbfsFields(g, all, 1)
	for _, w := range []int{2, 3, 4, 7, 16} {
		if got := msbfsFields(g, all, w); !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: shared distance fields diverge bitwise from one worker", w)
		}
	}
}

// naiveBrandes is an independent reference Brandes implementation (the
// pre-optimization rolling-queue forward phase) for validating the
// direction-optimizing rewrite on graphs dense enough to flip levels
// bottom-up.
func naiveBrandes(g *graph.Graph) []float64 {
	n := g.NumVertices()
	bc := make([]float64, n)
	for s := int32(0); s < int32(n); s++ {
		sigma := make([]float64, n)
		dist := make([]int32, n)
		delta := make([]float64, n)
		for i := range dist {
			dist[i] = -1
		}
		order := make([]int32, 0, n)
		sigma[s], dist[s] = 1, 0
		order = append(order, s)
		for head := 0; head < len(order); head++ {
			v := order[head]
			for _, u := range g.Neighbors(v) {
				if dist[u] < 0 {
					dist[u] = dist[v] + 1
					order = append(order, u)
				}
				if dist[u] == dist[v]+1 {
					sigma[u] += sigma[v]
				}
			}
		}
		for i := len(order) - 1; i > 0; i-- {
			w := order[i]
			for _, v := range g.Neighbors(w) {
				if dist[v] == dist[w]-1 {
					delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
				}
			}
			bc[w] += delta[w]
		}
	}
	for v := range bc {
		bc[v] *= 0.5
	}
	return bc
}

// TestBetweennessDirectionOptimizedMatchesNaive runs the rewritten
// forward phase on dense graphs whose middle levels exceed the
// bottom-up switch threshold and compares against the independent
// naive Brandes within floating-point summation-order slack.
func TestBetweennessDirectionOptimizedMatchesNaive(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"dense", randomGraph(31, 300, 6.0)},
		{"sparse", randomGraph(32, 200, 1.5)},
		{"disconnected", disconnectedGraph(33, 150)},
	} {
		want := naiveBrandes(tc.g)
		got := BetweennessCentrality(tc.g)
		for v := range want {
			diff := math.Abs(got[v] - want[v])
			if diff > 1e-9*math.Max(1, math.Abs(want[v])) {
				t.Fatalf("%s: bc[%d] = %g, naive %g", tc.name, v, got[v], want[v])
			}
		}
	}
}

// TestMSBFSKernelWarmAllocations pins the warm-path allocation count of
// the full closeness kernel: output slice, one scratch warm-up per
// call, and the fixed per-worker closures — a budget independent of
// graph size and batch count.
func TestMSBFSKernelWarmAllocations(t *testing.T) {
	g := randomGraph(41, 900, 2.5)
	if a := testing.AllocsPerRun(5, func() { ClosenessCentrality(g) }); a > allocBudget {
		t.Fatalf("MS-BFS closeness allocates %v objects on a 900-vertex graph, budget %d", a, allocBudget)
	}
	if a := testing.AllocsPerRun(5, func() {
		SharedDistanceFields(g, []string{"closeness", "harmonic"})
	}); a > allocBudget+2 {
		t.Fatalf("shared distance pass allocates %v objects, budget %d", a, allocBudget+2)
	}
}
