package measures

import "repro/internal/graph"

// TrussNumbers computes KT(e) — the K value of the maximal K-Truss of
// each edge (Definition 5 of the paper) — where a K-Truss is a
// subgraph whose every edge participates in at least K triangles
// within the subgraph. (This is the paper's "Triangle K-Core"
// convention: K counts triangles directly, not the K-2 clique-size
// convention some other work uses.)
//
// The decomposition peels edges in increasing order of remaining
// triangle support with a bucket queue, decrementing the support of
// the two co-triangle edges of every peeled edge: the edge analogue of
// the Batagelj–Zaveršnik core peeling.
func TrussNumbers(g *graph.Graph) []int32 {
	m := g.NumEdges()
	truss := make([]int32, m)
	if m == 0 {
		return truss
	}
	o := orient(g)
	sup := o.edgeTriangles()
	// Per-edge triangle CSR (Wang & Cheng's in-memory truss
	// decomposition, VLDB 2012): triangles of edge e are the ID pairs
	// pairs[triOff[e]:triOff[e+1]], each the triangle's other two
	// edges, so the peel walks a list instead of re-intersecting
	// neighbor lists. triOff[e+1] starts at e's first slot and is
	// advanced past each pair written, ending at e's end.
	triOff := make([]int, m+1)
	for e := 1; e < m; e++ {
		triOff[e+1] = triOff[e] + 2*int(sup[e-1])
	}
	pairs := make([]int32, triOff[m]+2*int(sup[m-1]))
	add := func(e, a, b int32) {
		p := triOff[e+1]
		pairs[p], pairs[p+1] = a, b
		triOff[e+1] = p + 2
	}
	o.forEachTriangle(func(_, _, _, uv, vw, uw int32) {
		add(uv, vw, uw)
		add(vw, uv, uw)
		add(uw, uv, vw)
	})

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
		for p := triOff[e]; p < triOff[e+1]; p += 2 {
			e1, e2 := pairs[p], pairs[p+1]
			if !alive[e1] || !alive[e2] {
				continue // triangle already destroyed by an earlier peel
			}
			demote(e1, sup[e])
			demote(e2, sup[e])
		}
	}
	return truss
}

// TrussNumbersFloat wraps TrussNumbers as a float64 scalar field.
func TrussNumbersFloat(g *graph.Graph) []float64 {
	truss := TrussNumbers(g)
	out := make([]float64, len(truss))
	for i, t := range truss {
		out[i] = float64(t)
	}
	return out
}

// MaxTruss reports the maximum truss number, or 0 for an edgeless graph.
func MaxTruss(g *graph.Graph) int32 {
	max := int32(0)
	for _, t := range TrussNumbers(g) {
		if t > max {
			max = t
		}
	}
	return max
}

// KTrussSubgraph returns the edge IDs of the K-truss: the maximal
// subgraph in which every edge participates in at least k triangles.
func KTrussSubgraph(g *graph.Graph, k int32) []int32 {
	truss := TrussNumbers(g)
	var es []int32
	for e, t := range truss {
		if t >= k {
			es = append(es, int32(e))
		}
	}
	return es
}
