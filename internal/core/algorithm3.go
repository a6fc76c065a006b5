package core

import (
	"repro/internal/graph"
)

// BuildEdgeTree runs Algorithm 3 of the paper: the optimized
// O(|E|·log|E|) construction of the edge scalar tree.
//
// The naive approach (BuildEdgeTreeNaive) converts the graph to its
// dual — one dual vertex per edge, dual edges between edges sharing an
// endpoint — whose size is Σ_v deg(v)², cubic in the worst case.
// Algorithm 3 avoids materializing the dual: when edge e_i is swept,
// only the minimum-sweep-index incident edge of each endpoint needs to
// be examined, because every earlier-processed edge on that endpoint
// has already been merged into that edge's subtree (Proposition 3).
// That incidence rule is all this function supplies; the sweep itself
// is the shared engine of sweep.go, with the order computed by
// SweepOrder.
func BuildEdgeTree(f *EdgeField) *Tree {
	order := SweepOrder(f.Values)
	return buildTree(f.Values, order, prop3Adjacency(f, order))
}

// prop3Adjacency returns the Proposition-3 adjacency provider for an
// edge field swept in the given order: the candidates of edge e are
// the min-sweep-index incident edges of e's two endpoints. The
// engine's processed guard subsumes the paper's "m < i" rank check —
// an edge with smaller sweep index than the current one is exactly an
// already-processed edge — so the resulting tree is identical to the
// explicit Algorithm 3 loop.
func prop3Adjacency(f *EdgeField, order []int32) sweepAdjacency {
	m, n := f.G.NumEdges(), f.G.NumVertices()
	return prop3AdjacencyInto(f, order, make([]int32, m), make([]int32, n))
}

// prop3AdjacencyInto is prop3Adjacency with caller-supplied rank and
// minIDEdge scratch (of length NumEdges and NumVertices respectively),
// so the pooled TreeBuilder can reuse the two arrays across builds.
//
// The returned provider aliases every result to one closure-captured
// 2-element buffer: each call overwrites the slice handed out by the
// previous call. That is exactly the sweepAdjacency
// consume-before-next-call contract — callers that need a candidate
// list to survive the next call must copy it.
func prop3AdjacencyInto(f *EdgeField, order, rank, minIDEdge []int32) sweepAdjacency {
	// rank[e] = position of edge e in the sweep order ("index" in the
	// paper's line 1); only needed to pick each endpoint's minimum.
	for i, e := range order {
		rank[e] = int32(i)
	}

	// minIDEdge[v] = the incident edge of v with minimum sweep index
	// (the paper's v.min_id_edge), or -1 for isolated vertices.
	n := f.G.NumVertices()
	for v := range minIDEdge {
		minIDEdge[v] = -1
	}
	for v := int32(0); v < int32(n); v++ {
		for _, e := range f.G.IncidentEdges(v) {
			if minIDEdge[v] < 0 || rank[e] < rank[minIDEdge[v]] {
				minIDEdge[v] = e
			}
		}
	}

	var buf [2]int32
	return func(ei int32) []int32 {
		edge := f.G.Edge(ei)
		k := 0
		for _, em := range [2]int32{minIDEdge[edge.U], minIDEdge[edge.V]} {
			if em >= 0 {
				buf[k] = em
				k++
			}
		}
		return buf[:k]
	}
}

// DualGraph converts an edge scalar graph to its dual: every edge of g
// becomes a dual vertex, and two dual vertices are adjacent iff the
// original edges share an endpoint. This is the first step of the
// paper's naive edge-tree method; its size — hence cost — is
// Σ_v deg(v)² dual edges before deduplication, which is why the paper
// develops Algorithm 3 instead.
func DualGraph(g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(g.NumEdges())
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		inc := g.IncidentEdges(v)
		for i := 0; i < len(inc); i++ {
			for j := i + 1; j < len(inc); j++ {
				b.AddEdge(inc[i], inc[j])
			}
		}
	}
	return b.Build()
}

// BuildEdgeTreeNaive is the paper's naive edge-tree method: build the
// dual graph, then run Algorithm 1 on it with edge scalars as dual
// vertex scalars. Kept as the baseline for Table II's tc-vs-te
// comparison; production callers should use BuildEdgeTree.
func BuildEdgeTreeNaive(f *EdgeField) *Tree {
	dual := DualGraph(f.G)
	df := &VertexField{G: dual, Values: f.Values}
	return BuildVertexTree(df)
}
