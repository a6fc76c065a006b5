package measures

import (
	"repro/internal/graph"
	"repro/internal/par"
)

// EdgeBetweennessCentrality computes exact edge betweenness on the
// unweighted graph: for every edge, the number of shortest paths
// passing through it, counting each unordered vertex pair once. It is
// the Brandes vertex accumulation with dependencies attributed to the
// edge traversed during back-propagation, O(|V|·|E|) total, run on the
// batched MS-Brandes engine with the vertex kernel's stripe merge, so
// the field is bitwise identical for any worker count and agrees with
// the per-source oracle of the tests up to summation order.
//
// Edge betweenness is the natural edge-based centrality field for the
// paper's Section II-C machinery: feeding it to the edge scalar tree
// surfaces the bridge structure of the graph the way vertex
// betweenness surfaces bridge nodes in Section III-C.
func EdgeBetweennessCentrality(g *graph.Graph) []float64 {
	return msBrandesEdgeBetweenness(g, par.Workers(g.NumVertices()))
}
