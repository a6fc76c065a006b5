package core

// TreeBuilder pools every transient buffer of the measure→sweep→tree
// hot path — the sweep order, the counting-sort buckets, the
// union-find sweep state, the raw tree arrays, the edge-tree
// incidence scratch, and Algorithm 2's worklists — so repeated tree
// constructions (the serve command's per-request analyses, experiment
// sweeps) stop paying O(n) allocations per build. The zero value is ready to use; buffers are
// sized on first build and grown only when a larger field arrives.
//
// A TreeBuilder is not safe for concurrent use — hold one per
// goroutine. The sweep-order computation and output are bit-identical
// to the package-level builders.
type TreeBuilder struct {
	sweep   treeSweep
	order   []int32
	counts  []int32
	parent  []int32
	scalar  []float64
	rank    []int32 // edge-tree sweep ranks
	minEdge []int32 // edge-tree min-sweep-index incident edges
	post    []int32 // Algorithm 2 scratch
}

// sweepOrderInto computes the sweep order of values into the pooled
// order buffer: the counting fast path when the field qualifies, the
// parallel comparison sort otherwise.
func (b *TreeBuilder) sweepOrderInto(values []float64) []int32 {
	n := len(values)
	if cap(b.order) < n {
		b.order = make([]int32, n)
	}
	order := b.order[:n]
	b.order = order
	var ok bool
	if b.counts, ok = tryCountingOrder(values, order, b.counts); ok {
		return order
	}
	for i := range order {
		order[i] = int32(i)
	}
	parallelSortOrder(order, values)
	return order
}

// treeInto runs the shared sweep into the pooled tree arrays.
func (b *TreeBuilder) treeInto(values []float64, order []int32, adj sweepAdjacency) *Tree {
	n := len(values)
	if cap(b.parent) < n {
		b.parent = make([]int32, n)
		b.scalar = make([]float64, n)
	}
	b.parent, b.scalar = b.parent[:n], b.scalar[:n]
	t := &Tree{Parent: b.parent, Scalar: b.scalar, Order: order}
	runSweep(t, values, order, adj, &b.sweep)
	return t
}

// BuildVertexTree is Algorithm 1 on pooled state. The returned tree
// aliases the builder's internal storage: it is valid only until the
// next Build call on this builder and must not be retained or
// modified. Use the package-level BuildVertexTree when the tree needs
// to outlive the builder.
func (b *TreeBuilder) BuildVertexTree(f *VertexField) *Tree {
	return b.treeInto(f.Values, b.sweepOrderInto(f.Values), f.G.Neighbors)
}

// BuildEdgeTree is Algorithm 3 on pooled state, under the same
// aliasing contract as BuildVertexTree.
func (b *TreeBuilder) BuildEdgeTree(f *EdgeField) *Tree {
	order := b.sweepOrderInto(f.Values)
	m, n := f.G.NumEdges(), f.G.NumVertices()
	if cap(b.rank) < m {
		b.rank = make([]int32, m)
	}
	if cap(b.minEdge) < n {
		b.minEdge = make([]int32, n)
	}
	b.rank, b.minEdge = b.rank[:m], b.minEdge[:n]
	return b.treeInto(f.Values, order, prop3AdjacencyInto(f, order, b.rank, b.minEdge))
}

// VertexSuperTree runs Algorithm 1 + Algorithm 2 on pooled state. The
// returned SuperTree owns all of its storage and is safe to retain;
// only the intermediate raw tree lived in the pool.
func (b *TreeBuilder) VertexSuperTree(f *VertexField) *SuperTree {
	return postprocess(b.BuildVertexTree(f), &b.post)
}

// EdgeSuperTree runs Algorithm 3 + Algorithm 2 on pooled state, with
// the same ownership contract as VertexSuperTree.
func (b *TreeBuilder) EdgeSuperTree(f *EdgeField) *SuperTree {
	return postprocess(b.BuildEdgeTree(f), &b.post)
}
