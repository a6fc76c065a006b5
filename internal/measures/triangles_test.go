package measures

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/datasets"
	"repro/internal/graph"
)

// EdgeTriangles counts, for every edge, the triangles the edge is in:
// the supports ListTriangles returns.
func EdgeTriangles(g *graph.Graph) []int32 {
	sup, _ := ListTriangles(g)
	return sup
}

// triangleCases are the graphs the oriented listing is checked on
// against the merge oracles: the degenerate shapes, degree ties
// everywhere (cycles, K_n, K_{a,b}), disconnected parts, random graphs
// over a range of densities, a triangle-dense random graph (T > m)
// and the GrQc stand-in at scale 2.
func triangleCases(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	cases := map[string]*graph.Graph{
		"empty":        graph.NewBuilder(0).Build(),
		"isolated":     graph.NewBuilder(7).Build(),
		"triangle":     cycleGraph(3),
		"cycle":        cycleGraph(12),
		"K7":           completeGraph(7),
		"K12":          completeGraph(12),
		"K40":          completeGraph(40),
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
	cases["random-dense"] = randomGraph(20, 120, 20)
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

// TestOnionLayersMatchRoundsOracle checks the bucket-queue onion peel
// bit for bit against the round-by-round peel it replaced, on the
// triangle cases and on the GrQc stand-in at scale 10.
func TestOnionLayersMatchRoundsOracle(t *testing.T) {
	cases := triangleCases(t)
	g, err := datasets.Generate("GrQc", 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	cases["GrQc-scale10"] = g
	for name, g := range cases {
		if got, want := OnionLayers(g), onionLayersRounds(g); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: OnionLayers differs from the round-by-round oracle", name)
		}
	}
}

// TestTriangleBound checks that the listing buffer's size bound holds
// on every case, is exact on cliques and is 0 on complete bipartite
// graphs.
func TestTriangleBound(t *testing.T) {
	for name, g := range triangleCases(t) {
		if b, tri := orient(g).triangleBound(), TotalTriangles(g); int64(b) < tri {
			t.Errorf("%s: bound %d below %d triangles", name, b, tri)
		}
	}
	for _, n := range []int{3, 7, 40} {
		if b := orient(completeGraph(n)).triangleBound(); b != n*(n-1)*(n-2)/6 {
			t.Errorf("K%d: bound %d, want C(%d, 3) = %d", n, b, n, n*(n-1)*(n-2)/6)
		}
	}
	if b := orient(completeBipartite(30, 30)).triangleBound(); b != 0 {
		t.Errorf("K30,30: bound %d, want 0", b)
	}
}

// FuzzTriangleKernels decodes bytes into a small graph and checks every
// triangle field and the (3,4) nucleus numbers, per sorted vertex
// triple, bit for bit against their merge oracles, and the onion layers
// against the round-by-round peel. The first byte sets the
// vertex count; each later byte pair (x, y) adds the edge {x, y}
// modulo n, or, when x >= 0xf0, a clique on the 3 + x&0xf vertices
// from y on (wrapping), which makes triangle-dense parts with degree
// ties. Vertices no pair names stay isolated.
func FuzzTriangleKernels(f *testing.F) {
	f.Add([]byte{12, 0, 1, 1, 2, 2, 0, 5, 6, 9, 9})
	f.Add([]byte{40, 0xf9, 0, 0xf2, 20, 30, 31, 31, 32, 12, 30})
	f.Add([]byte{24, 0xf4, 0, 0xf4, 3, 0xf1, 10, 15, 2, 16, 17})
	f.Add([]byte{7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%48
		b := graph.NewBuilder(n)
		for i := 1; i+1 < len(data); i += 2 {
			x, y := int(data[i]), int(data[i+1])
			if x < 0xf0 {
				b.AddEdge(int32(x%n), int32(y%n))
				continue
			}
			k := 3 + x&0xf
			for a := 0; a < k; a++ {
				for c := a + 1; c < k; c++ {
					b.AddEdge(int32((y+a)%n), int32((y+c)%n))
				}
			}
		}
		g := b.Build()
		if got, want := TrussNumbers(g), trussNumbersMerge(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("TrussNumbers = %v, merge oracle %v", got, want)
		}
		if got, want := EdgeTriangles(g), edgeTrianglesMerge(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("EdgeTriangles = %v, merge oracle %v", got, want)
		}
		if got, want := VertexTriangles(g), vertexTrianglesMerge(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("VertexTriangles = %v, merge oracle %v", got, want)
		}
		if got, want := ClusteringCoefficients(g), clusteringMerge(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("ClusteringCoefficients = %v, merge oracle %v", got, want)
		}
		if got, want := OnionLayers(g), onionLayersRounds(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("OnionLayers = %v, round-by-round oracle %v", got, want)
		}
		if got, want := fourCliqueKappa(g), fourCliqueKappaMerge(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("(3,4) nucleus numbers = %v, merge oracle %v", got, want)
		}
	})
}
