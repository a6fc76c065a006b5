package core

// Ablation benchmarks for the design decisions called out in
// DESIGN.md §4: union-find variant, edge-tree method, postprocessing,
// simplification, and graph representation.

import "testing"

func benchField(b *testing.B) *VertexField {
	b.Helper()
	return randomField(1, 20000, 3.0, 64)
}

func benchEdgeField(b *testing.B) *EdgeField {
	b.Helper()
	return randomEdgeField(1, 3000, 3.0, 32)
}

// BenchmarkAblationUnionFindFast: Algorithm 1 with path-compressed,
// rank-united DSU (the production configuration).
func BenchmarkAblationUnionFindFast(b *testing.B) {
	f := benchField(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildVertexTree(f)
	}
}

// BenchmarkAblationUnionFindNaive: Algorithm 1 with no path
// compression or union by rank — the O(n) find chains the DSU exists
// to avoid.
func BenchmarkAblationUnionFindNaive(b *testing.B) {
	f := benchField(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildVertexTreeNaiveUF(f)
	}
}

// BenchmarkAblationEdgeTreeOptimized: Algorithm 3 (min-id-edge trick).
func BenchmarkAblationEdgeTreeOptimized(b *testing.B) {
	f := benchEdgeField(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildEdgeTree(f)
	}
}

// BenchmarkAblationEdgeTreeNaive: the dual-graph method whose
// Σ deg(v)² blow-up Table II quantifies.
func BenchmarkAblationEdgeTreeNaive(b *testing.B) {
	f := benchEdgeField(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildEdgeTreeNaive(f)
	}
}

// BenchmarkAblationPostprocess: Algorithm 2 alone (single tree pass).
func BenchmarkAblationPostprocess(b *testing.B) {
	f := benchField(b)
	t := BuildVertexTree(f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Postprocess(t)
	}
}

// BenchmarkAblationSimplify compares tree sizes/cost with and without
// scalar discretization (the paper's rendering speedup for large
// trees).
func BenchmarkAblationSimplify(b *testing.B) {
	f := randomField(2, 20000, 3.0, 1_000_000) // near-distinct values
	b.Run("Full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			VertexSuperTree(f)
		}
	})
	b.Run("Bins16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			VertexSuperTree(SimplifyVertexField(f, 16))
		}
	})
}

// BenchmarkAblationGraphRepr compares the CSR layout against an
// adjacency-map graph for the Algorithm 1 sweep.
func BenchmarkAblationGraphRepr(b *testing.B) {
	f := benchField(b)
	adj := mapAdjacency(f.G)
	b.Run("CSR", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			BuildVertexTree(f)
		}
	})
	b.Run("Map", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buildTreeOnMapGraph(adj, f.Values)
		}
	})
}
