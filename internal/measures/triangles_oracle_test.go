package measures

import "repro/internal/graph"

// The merge-based triangle kernels the oriented listing replaced, kept
// as oracles: every edge intersects its endpoints' full sorted neighbor
// lists, and the truss peel re-runs that merge for every peeled edge,
// finding co-triangle edges by g.EdgeID binary search.

// edgeTrianglesMerge counts each edge's triangles by merge-intersecting
// the two endpoint neighbor lists.
func edgeTrianglesMerge(g *graph.Graph) []int32 {
	m := g.NumEdges()
	tri := make([]int32, m)
	for e := int32(0); e < int32(m); e++ {
		ed := g.Edge(e)
		tri[e] = int32(countCommon(g.Neighbors(ed.U), g.Neighbors(ed.V)))
	}
	return tri
}

// vertexTrianglesMerge counts each vertex's triangles, crediting every
// triangle once at its lexicographically least representation: edge
// (u,v) with u<v plus apex w>v.
func vertexTrianglesMerge(g *graph.Graph) []int32 {
	tri := make([]int32, g.NumVertices())
	for e := int32(0); e < int32(g.NumEdges()); e++ {
		ed := g.Edge(e)
		commonNeighbors(g.Neighbors(ed.U), g.Neighbors(ed.V), func(w int32) {
			if w > ed.V {
				tri[ed.U]++
				tri[ed.V]++
				tri[w]++
			}
		})
	}
	return tri
}

// clusteringMerge is ClusteringCoefficients over vertexTrianglesMerge.
func clusteringMerge(g *graph.Graph) []float64 {
	tri := vertexTrianglesMerge(g)
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

// trussNumbersMerge is the bucket peel with per-peel re-intersection.
func trussNumbersMerge(g *graph.Graph) []int32 {
	m := g.NumEdges()
	truss := make([]int32, m)
	if m == 0 {
		return truss
	}
	sup := edgeTrianglesMerge(g)
	maxSup := int32(0)
	for _, s := range sup {
		if s > maxSup {
			maxSup = s
		}
	}
	// Bucket-sort edges by support (same layout as the k-core peel).
	bin := make([]int32, maxSup+2)
	for _, s := range sup {
		bin[s+1]++
	}
	for d := int32(1); d <= maxSup+1; d++ {
		bin[d] += bin[d-1]
	}
	edgeOrder := make([]int32, m)
	pos := make([]int32, m)
	cursor := make([]int32, maxSup+1)
	copy(cursor, bin[:maxSup+1])
	for e := 0; e < m; e++ {
		pos[e] = cursor[sup[e]]
		edgeOrder[pos[e]] = int32(e)
		cursor[sup[e]]++
	}
	alive := make([]bool, m)
	for i := range alive {
		alive[i] = true
	}

	demote := func(x int32, floor int32) {
		// Decrease sup[x] by one, but never below the current peel
		// level, keeping the bucket structure consistent.
		if sup[x] <= floor {
			return
		}
		sx := sup[x]
		px := pos[x]
		pw := bin[sx]
		w := edgeOrder[pw]
		if x != w {
			edgeOrder[px], edgeOrder[pw] = w, x
			pos[x], pos[w] = pw, px
		}
		bin[sx]++
		sup[x]--
	}

	for i := 0; i < m; i++ {
		e := edgeOrder[i]
		truss[e] = sup[e]
		alive[e] = false
		ed := g.Edge(e)
		commonNeighbors(g.Neighbors(ed.U), g.Neighbors(ed.V), func(w int32) {
			e1 := g.EdgeID(ed.U, w)
			e2 := g.EdgeID(ed.V, w)
			if !alive[e1] || !alive[e2] {
				return // triangle already destroyed by an earlier peel
			}
			demote(e1, sup[e])
			demote(e2, sup[e])
		})
	}
	return truss
}

// countCommon counts common elements of two sorted slices.
func countCommon(a, b []int32) int {
	n := 0
	commonNeighbors(a, b, func(int32) { n++ })
	return n
}

// commonNeighbors calls fn for every element present in both sorted
// slices.
func commonNeighbors(a, b []int32, fn func(int32)) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			fn(a[i])
			i++
			j++
		}
	}
}
