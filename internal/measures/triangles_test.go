package measures

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/datasets"
	"repro/internal/graph"
)

// triangleCases are the graphs the oriented listing is checked on
// against the merge oracles: the degenerate shapes, degree ties
// everywhere (cycles, K_n, K_{a,b}), disconnected parts, random graphs
// over a range of densities, and the GrQc stand-in at scale 2.
func triangleCases(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	cases := map[string]*graph.Graph{
		"empty":        graph.NewBuilder(0).Build(),
		"isolated":     graph.NewBuilder(7).Build(),
		"triangle":     cycleGraph(3),
		"cycle":        cycleGraph(12),
		"K7":           completeGraph(7),
		"K12":          completeGraph(12),
		"star":         starGraph(9),
		"path":         pathGraph(6),
		"bipartiteK45": completeBipartite(4, 5),
	}
	// Two disjoint K5s, a triangle and isolated vertices in between.
	b := graph.NewBuilder(20)
	for _, base := range []int32{0, 7} {
		for i := int32(0); i < 5; i++ {
			for j := i + 1; j < 5; j++ {
				b.AddEdge(base+i, base+j)
			}
		}
	}
	b.AddEdge(14, 15)
	b.AddEdge(15, 16)
	b.AddEdge(14, 16)
	cases["disconnected"] = b.Build()
	for seed := int64(0); seed < 20; seed++ {
		n := 10 + int(seed)*7
		density := 1 + float64(seed%5)
		cases[fmt.Sprintf("random-%d", seed)] = randomGraph(seed, n, density)
	}
	g, err := datasets.Generate("GrQc", 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	cases["GrQc-scale2"] = g
	return cases
}

func completeBipartite(a, b int) *graph.Graph {
	bld := graph.NewBuilder(a + b)
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			bld.AddEdge(int32(i), int32(a+j))
		}
	}
	return bld.Build()
}

// TestTriangleListingMatchesMergeOracle checks every triangle field
// from the oriented listing bit for bit against the merge kernels it
// replaced.
func TestTriangleListingMatchesMergeOracle(t *testing.T) {
	for name, g := range triangleCases(t) {
		et := EdgeTriangles(g)
		if want := edgeTrianglesMerge(g); !reflect.DeepEqual(et, want) {
			t.Errorf("%s: EdgeTriangles differs from the merge oracle", name)
		}
		if got, want := VertexTriangles(g), vertexTrianglesMerge(g); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: VertexTriangles differs from the merge oracle", name)
		}
		if got, want := ClusteringCoefficients(g), clusteringMerge(g); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ClusteringCoefficients differs from the merge oracle", name)
		}
		if got, want := TrussNumbers(g), trussNumbersMerge(g); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: TrussNumbers differs from the merge oracle", name)
		}
		var sum int64
		for _, c := range et {
			sum += int64(c)
		}
		if got := TotalTriangles(g); 3*got != sum {
			t.Errorf("%s: TotalTriangles = %d, edge counts sum to %d", name, got, sum)
		}
	}
}

// TestTriangleKernelAllocationsConstant pins the listing scratch: the
// forward CSR and mark array come from one slab and the truss peel's
// triangle CSR from two more slices, so the allocation count is the
// same on a 1k-vertex random graph and on the 10k-vertex GrQc stand-in.
func TestTriangleKernelAllocationsConstant(t *testing.T) {
	small := randomGraph(5, 1000, 3.0)
	big, err := datasets.Generate("GrQc", 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []struct {
		name string
		fn   func(*graph.Graph)
	}{
		{"ClusteringCoefficients", func(g *graph.Graph) { ClusteringCoefficients(g) }},
		{"TrussNumbers", func(g *graph.Graph) { TrussNumbers(g) }},
	} {
		a := testing.AllocsPerRun(3, func() { k.fn(small) })
		b := testing.AllocsPerRun(3, func() { k.fn(big) })
		t.Logf("%s: %v allocs on %d vertices, %v on %d", k.name, a, small.NumVertices(), b, big.NumVertices())
		if a != b {
			t.Errorf("%s allocates %v objects on %d vertices but %v on %d; want a constant count",
				k.name, a, small.NumVertices(), b, big.NumVertices())
		}
	}
}
