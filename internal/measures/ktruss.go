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
	sup, tris := orient(g).listTriangles(true)
	maxSup := int32(0)
	for _, s := range sup {
		if s > maxSup {
			maxSup = s
		}
	}

	// Per-edge triangle CSR (Wang & Cheng's in-memory truss
	// decomposition, VLDB 2012), scattered from the listing by
	// counting: the IDs of edge e's triangles are
	// ids[triOff[e]:triOff[e+1]], so the peel walks a list instead of
	// re-intersecting neighbor lists. triOff[e+1] starts at e's first
	// slot and is advanced past each ID written, ending at e's end.
	slab := make([]int32, len(tris)+m+1)
	ids, triOff := slab[:len(tris)], slab[len(tris):]
	for e := 1; e < m; e++ {
		triOff[e+1] = triOff[e] + sup[e-1]
	}
	for k, e := range tris {
		p := triOff[e+1]
		ids[p] = int32(k / 3)
		triOff[e+1] = p + 1
	}

	// Peel on the k-core bucket queue, never decrementing a support
	// below the current level.
	q := newBucketQueue(sup, maxSup)
	for i := 0; i < m; i++ {
		e := q.order[i]
		k := sup[e]
		truss[e] = k
		for _, t := range ids[triOff[e]:triOff[e+1]] {
			tri := tris[3*t : 3*t+3]
			if tri[0] < 0 {
				continue // destroyed when one of its other edges peeled
			}
			e1, e2 := tri[0], tri[1]
			if e1 == e {
				e1 = tri[2]
			} else if e2 == e {
				e2 = tri[2]
			}
			tri[0] = -1
			if sup[e1] > k {
				q.decrement(e1)
			}
			if sup[e2] > k {
				q.decrement(e2)
			}
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
