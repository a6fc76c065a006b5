package core

import "repro/internal/unionfind"

// Serial and ablation tree builders, kept as test oracles: the
// production builders (parallel or counting sweep-order sort, pooled
// state, CSR adjacency, path-compressed union-find) must produce
// bit-identical trees.

// sweepOrder returns item IDs sorted by the sweep comparator with the
// serial driver: the reference every production sort driver must
// match bit for bit.
func sweepOrder(values []float64) []int32 {
	order := make([]int32, len(values))
	for i := range order {
		order[i] = int32(i)
	}
	sortChunk(order, values)
	return order
}

// BuildVertexTreeSerial is BuildVertexTree with the sweep order
// computed by the serial sort regardless of input size: the oracle for
// the parallel-by-default path, which must build a bit-identical tree.
func BuildVertexTreeSerial(f *VertexField) *Tree {
	return buildTree(f.Values, sweepOrder(f.Values), f.G.Neighbors)
}

// BuildEdgeTreeSerial is BuildEdgeTree with the serial sweep-order
// sort regardless of input size — the oracle for the
// parallel-by-default path, which must build a bit-identical tree.
func BuildEdgeTreeSerial(f *EdgeField) *Tree {
	order := sweepOrder(f.Values)
	return buildTree(f.Values, order, prop3Adjacency(f, order))
}

// buildTreeOnMapGraph is the ablation twin of BuildVertexTree running
// on the adjacency-map representation, for the CSR layout benchmark
// and the cross-representation oracle test.
func buildTreeOnMapGraph(adj map[int32][]int32, values []float64) *Tree {
	return buildTree(values, sweepOrder(values), func(v int32) []int32 { return adj[v] })
}

// buildVertexTreeNaiveUF is the ablation twin of BuildVertexTree using
// a union-find with no path compression or union by rank, for the
// union-find benchmark and the cross-implementation oracle test.
func buildVertexTreeNaiveUF(f *VertexField) *Tree {
	n := f.G.NumVertices()
	t := &Tree{
		Parent: make([]int32, n),
		Scalar: make([]float64, n),
		Order:  sweepOrder(f.Values),
	}
	copy(t.Scalar, f.Values)
	for i := range t.Parent {
		t.Parent[i] = -1
	}
	dsu := unionfind.NewNaive(n)
	compRoot := make([]int32, n)
	for i := range compRoot {
		compRoot[i] = int32(i)
	}
	processed := make([]bool, n)
	for _, vi := range t.Order {
		for _, vj := range f.G.Neighbors(vi) {
			if !processed[vj] {
				continue
			}
			ri, rj := dsu.Find(int(vi)), dsu.Find(int(vj))
			if ri == rj {
				continue
			}
			t.Parent[compRoot[rj]] = vi
			dsu.Union(ri, rj)
			compRoot[dsu.Find(int(vi))] = vi
		}
		processed[vi] = true
	}
	return t
}
