package measures

import (
	"testing"

	"repro/internal/datasets"
	"repro/internal/graph"
)

// Centrality kernel benchmarks. Run with -benchmem: the per-source-BFS
// kernels (closeness, harmonic, Brandes) must show O(1) allocations
// per call after the scratch rewrite — before it they allocated a
// fresh distance array and queue per source, O(|V|) allocations and
// O(|V|²) bytes per call.

func benchCentralityGraph(b *testing.B) *graph.Graph {
	b.Helper()
	return randomGraph(1, 2000, 3.0)
}

func BenchmarkClosenessCentrality(b *testing.B) {
	g := benchCentralityGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ClosenessCentrality(g)
	}
}

// BenchmarkClosenessPerSourceBaseline times the per-source oracle the
// batched MS-BFS engine replaced; the ratio against
// BenchmarkClosenessCentrality is the batching speedup.
func BenchmarkClosenessPerSourceBaseline(b *testing.B) {
	g := benchCentralityGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PerSourceClosenessCentrality(g)
	}
}

// BenchmarkSharedDistanceFields times the multi-field fast path: both
// distance-based measures from one MS-BFS traversal.
func BenchmarkSharedDistanceFields(b *testing.B) {
	g := benchCentralityGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SharedDistanceFields(g, []string{"closeness", "harmonic"})
	}
}

func BenchmarkHarmonicCentrality(b *testing.B) {
	g := benchCentralityGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HarmonicCentrality(g)
	}
}

func BenchmarkBetweennessCentrality(b *testing.B) {
	g := randomGraph(2, 600, 3.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BetweennessCentrality(g)
	}
}

// BenchmarkBFSScratchVsFresh isolates the single-source cost: the
// scratch path against the allocate-per-call baseline the centrality
// kernels used to pay |V| times per run.
func BenchmarkBFSScratchVsFresh(b *testing.B) {
	g := benchCentralityGraph(b)
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.BFSDistances(g, int32(i%g.NumVertices()))
		}
	})
	b.Run("scratch", func(b *testing.B) {
		var s graph.BFSScratch
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Distances(g, int32(i%g.NumVertices()))
		}
	})
}

// BenchmarkTriangleKernels times the triangle measures on the GrQc
// stand-in at scale 2, the serving benchmark's graph; the *-merge
// rows time the merge oracles the oriented listing replaced.
func BenchmarkTriangleKernels(b *testing.B) {
	g, err := datasets.Generate("GrQc", 2, 42)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []struct {
		name string
		fn   func(*graph.Graph)
	}{
		{"clustering", func(g *graph.Graph) { ClusteringCoefficients(g) }},
		{"clustering-merge", func(g *graph.Graph) { clusteringMerge(g) }},
		{"ktruss", func(g *graph.Graph) { TrussNumbers(g) }},
		{"ktruss-merge", func(g *graph.Graph) { trussNumbersMerge(g) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.fn(g)
			}
		})
	}
}
