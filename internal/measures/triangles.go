package measures

import "repro/internal/graph"

// orientedGraph is the forward (degree-ordered) orientation every
// triangle kernel lists from: each edge points from its endpoint of
// lower (degree, ID) rank to the higher one, so every vertex's forward
// list has at most O(√m) entries and each triangle {u, v, w} with
// rank(u) < rank(v) < rank(w) is found exactly once, from u (forward /
// compact-forward listing: Schank & Wagner 2005; Latapy, TCS 2008).
//
// All of it lives in one int32 slab, so a listing costs one allocation
// whatever the graph's size.
type orientedGraph struct {
	off  []int32 // forward list of u is adj[off[u]:off[u+1]]
	adj  []int32 // forward neighbors
	eid  []int32 // parallel to adj: the edge ID of (u, adj[i])
	mark []int32 // scratch: 1 + edge ID of (u, w) for u's forward w, else 0
}

func orient(g *graph.Graph) orientedGraph {
	n, m := g.NumVertices(), g.NumEdges()
	slab := make([]int32, 3*n+1+2*m)
	deg, slab := slab[:n], slab[n:]
	o := orientedGraph{}
	o.off, slab = slab[:n+1], slab[n+1:]
	o.adj, slab = slab[:m], slab[m:]
	o.eid, o.mark = slab[:m], slab[m:]
	for v := range deg {
		deg[v] = int32(g.Degree(int32(v)))
	}
	k := int32(0)
	for u := int32(0); u < int32(n); u++ {
		o.off[u] = k
		du := deg[u]
		es := g.IncidentEdges(u)
		for i, v := range g.Neighbors(u) {
			if dv := deg[v]; dv > du || (dv == du && v > u) {
				o.adj[k] = v
				o.eid[k] = es[i]
				k++
			}
		}
	}
	o.off[n] = k
	return o
}

// forEachTriangle calls fn once per triangle {u, v, w}, with uv, vw
// and uw its three edge IDs. Marking u's forward neighbors turns each
// wedge check into one array read, so the cost is O(Σ_u Σ_{v∈N+(u)}
// |N+(v)|) = O(m^1.5) with no binary searches.
func (o orientedGraph) forEachTriangle(fn func(u, v, w, uv, vw, uw int32)) {
	off, adj, eid, mark := o.off, o.adj, o.eid, o.mark
	for u := int32(0); u+1 < int32(len(off)); u++ {
		fwd, fwdEdge := adj[off[u]:off[u+1]], eid[off[u]:off[u+1]]
		for i, w := range fwd {
			mark[w] = fwdEdge[i] + 1
		}
		for i, v := range fwd {
			uv := fwdEdge[i]
			vEdge := eid[off[v]:off[v+1]]
			for j, w := range adj[off[v]:off[v+1]] {
				if uw := mark[w]; uw != 0 {
					fn(u, v, w, uv, vEdge[j], uw-1)
				}
			}
		}
		for _, w := range fwd {
			mark[w] = 0
		}
	}
}

// ListTriangles lists every triangle of g once, as its three edge IDs
// (uv, vw, uw) in tris[3t:3t+3], in the oriented listing's order, and
// counts in sup[e] the triangles of edge e: the groups and supports
// PeelCliques takes for the (2,3) nucleus. sup and tris share one
// allocation.
func ListTriangles(g *graph.Graph) (sup, tris []int32) {
	return orient(g).listTriangles()
}

// listTriangles counts each edge's triangles in sup and lists every
// triangle once, writing its edge IDs (uv, vw, uw) to tris[3t:3t+3].
// Both share one allocation, sized by triangleBound, so the listing
// costs one allocation on every graph however triangle-dense, and
// never more bytes than its own work; tris is cut to 3T.
func (o orientedGraph) listTriangles() (sup, tris []int32) {
	m := len(o.eid)
	slab := make([]int32, m+3*o.triangleBound())
	sup, tris = slab[:m:m], slab[m:]
	t := 0
	o.forEachTriangle(func(_, _, _, uv, vw, uw int32) {
		tris[t], tris[t+1], tris[t+2] = uv, vw, uw
		t += 3
		sup[uv]++
		sup[vw]++
		sup[uw]++
	})
	return sup, tris[:t]
}

// triangleBound bounds the triangle count T two ways and takes the
// smaller. Every triangle closes a wedge of two forward edges at its
// lowest-ranked corner, so T <= Σ_u C(|N+(u)|, 2); and forEachTriangle
// finds each triangle once while it scans N+(v) for a forward edge
// (u, v), so T is at most the listing's own work Σ_(u,v) |N+(v)|. The
// bound is exact on cliques and 0 on a complete bipartite graph, where
// one side's forward lists are empty.
func (o orientedGraph) triangleBound() int {
	off := o.off
	wedges, work := 0, 0
	for u := 1; u < len(off); u++ {
		d := int(off[u] - off[u-1])
		wedges += d * (d - 1) / 2
	}
	for _, v := range o.adj {
		work += int(off[v+1] - off[v])
	}
	return min(wedges, work)
}

// VertexTriangles counts, for every vertex, the number of triangles
// through the vertex. Each triangle {a,b,c} contributes 1 to each of
// its three corners.
func VertexTriangles(g *graph.Graph) []int32 {
	tri := make([]int32, g.NumVertices())
	orient(g).forEachTriangle(func(u, v, w, _, _, _ int32) {
		tri[u]++
		tri[v]++
		tri[w]++
	})
	return tri
}

// TotalTriangles counts the triangles in the graph.
func TotalTriangles(g *graph.Graph) int64 {
	var total int64
	orient(g).forEachTriangle(func(_, _, _, _, _, _ int32) { total++ })
	return total
}

// ClusteringCoefficients computes the local clustering coefficient of
// every vertex: triangles(v) / (deg(v) choose 2), with 0 for vertices
// of degree < 2.
func ClusteringCoefficients(g *graph.Graph) []float64 {
	tri := VertexTriangles(g)
	cc := make([]float64, g.NumVertices())
	for v := range cc {
		d := g.Degree(int32(v))
		if d < 2 {
			continue
		}
		cc[v] = 2 * float64(tri[v]) / (float64(d) * float64(d-1))
	}
	return cc
}

// TriangleDensityField returns per-vertex triangle counts as a scalar
// field; the paper's introduction lists triangle density among the
// natural local-connectivity measures to visualize.
func TriangleDensityField(g *graph.Graph) []float64 {
	tri := VertexTriangles(g)
	out := make([]float64, len(tri))
	for i, t := range tri {
		out[i] = float64(t)
	}
	return out
}
