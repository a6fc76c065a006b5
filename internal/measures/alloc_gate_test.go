package measures_test

import (
	"runtime"
	"testing"

	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/measures"
	"repro/internal/nucleus"
)

// TestTriangleKernelAllocationsConstant pins the kernels' allocation
// counts on a sparse random graph, the GrQc stand-in at scale 2, two
// triangle-dense graphs with T > m, where a triangle buffer grown by
// append would allocate more, and a triangle-free complete bipartite
// graph, whose bytes it also bounds. The listing's forward CSR and
// mark array share one slab; ktruss adds its output, one slab for the
// support counts and the triangle array, and PeelCliques' group CSR
// and bucket queue; onion allocates its output, the degrees and the
// bucket queue. Each nucleus.Decompose allocates its Decomposition
// and: for (1,2), one slab of vertex and edge lists and CoreNumbers'
// two; for (2,3), the edge list, the listing's two and the peel's two;
// for (3,4), the forward CSR, one slab of triangles, 4-cliques and
// supports, and the peel's two. It lives in the external test package
// because nucleus imports measures.
func TestTriangleKernelAllocationsConstant(t *testing.T) {
	grqc, err := datasets.Generate("GrQc", 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{
		"random-1000":  measures.RandomGraph(5, 1000, 3.0),
		"GrQc-scale2":  grqc,
		"K40":          measures.CompleteGraph(40),
		"random-dense": measures.RandomGraph(20, 120, 20),
		"K200,200":     measures.CompleteBipartite(200, 200),
	}
	for _, name := range []string{"K40", "random-dense"} {
		if g := graphs[name]; measures.TotalTriangles(g) <= int64(g.NumEdges()) {
			t.Fatalf("%s: %d triangles on %d edges, want T > m", name, measures.TotalTriangles(g), g.NumEdges())
		}
	}
	// The first garbage collection starts the runtime's mark workers,
	// which allocate; collect once so that it is not counted below.
	runtime.GC()
	for _, k := range []struct {
		name   string
		fn     func(*graph.Graph)
		allocs float64
	}{
		{"ClusteringCoefficients", func(g *graph.Graph) { measures.ClusteringCoefficients(g) }, 3},
		{"TrussNumbers", func(g *graph.Graph) { measures.TrussNumbers(g) }, 5},
		{"OnionLayers", func(g *graph.Graph) { measures.OnionLayers(g) }, 3},
		{"Decompose(1,2)", func(g *graph.Graph) { nucleus.Decompose(g, 1, 2) }, 4},
		{"Decompose(2,3)", func(g *graph.Graph) { nucleus.Decompose(g, 2, 3) }, 6},
		{"Decompose(3,4)", func(g *graph.Graph) { nucleus.Decompose(g, 3, 4) }, 5},
	} {
		for name, g := range graphs {
			a := testing.AllocsPerRun(3, func() { k.fn(g) })
			if a != k.allocs {
				t.Errorf("%s allocates %v objects on %s (%d vertices, %d edges), want %v",
					k.name, a, name, g.NumVertices(), g.NumEdges(), k.allocs)
			}
		}
	}
	// K_{200,200} has no triangles but 200·C(200, 2) forward wedges: a
	// triangle buffer sized by wedges would zero 47.8 MB here, one
	// sized by the listing's work zeroes nothing.
	g := graphs["K200,200"]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	measures.TrussNumbers(g)
	runtime.ReadMemStats(&after)
	limit := 64 * uint64(g.NumVertices()+g.NumEdges())
	if b := after.TotalAlloc - before.TotalAlloc; b > limit {
		t.Errorf("TrussNumbers allocates %d bytes on K200,200 (%d vertices, %d edges), want at most %d",
			b, g.NumVertices(), g.NumEdges(), limit)
	}
}
