package measures

import "repro/internal/graph"

// TrussNumbers computes KT(e) — the K value of the maximal K-Truss of
// each edge (Definition 5 of the paper) — where a K-Truss is a
// subgraph whose every edge participates in at least K triangles
// within the subgraph. (This is the paper's "Triangle K-Core"
// convention: K counts triangles directly, not the K-2 clique-size
// convention some other work uses.) It is the (2,3) nucleus number:
// the oriented triangle listing peeled by PeelCliques.
func TrussNumbers(g *graph.Graph) []int32 {
	truss := make([]int32, g.NumEdges())
	if len(truss) == 0 {
		return truss
	}
	sup, tris := orient(g).listTriangles()
	copy(truss, sup)
	PeelCliques(truss, tris, 3)
	return truss
}

// PeelCliques assigns every item its nucleus number κ (Sariyüce et
// al., WWW 2015): the largest k such that the item lies in a subgraph
// where every item is in at least k groups whose members all lie in
// it. Group c is members[width*c : width*c+width], and sup[x] must be
// the number of groups holding x. On return sup[x] is κ(x), and
// members is as it was passed in.
//
// Items peel in increasing order of remaining support on the k-core
// bucket queue (Batagelj–Zaveršnik). Peeling x destroys each group
// holding x and lowers the support of the group's other members,
// never below the current level k. A peeled item's support is at most
// k, so the test sup[y] > k skips x itself and every peeled member.
func PeelCliques(sup, members []int32, width int) {
	n, groups := len(sup), len(members)/width
	maxSup := int32(0)
	for _, s := range sup {
		maxSup = max(maxSup, s)
	}

	// Per-item group CSR (Wang & Cheng's in-memory truss decomposition,
	// VLDB 2012), scattered by counting: the groups of item x are
	// ids[off[x]:off[x+1]], so the peel walks a list instead of
	// re-listing cliques. off[x+1] starts at x's first slot and is
	// advanced past each ID written, ending at x's end.
	slab := make([]int32, len(members)+n+1)
	ids, off := slab[:len(members)], slab[len(members):]
	for x := 1; x < n; x++ {
		off[x+1] = off[x] + sup[x-1]
	}
	for c := range groups {
		for _, x := range members[width*c : width*c+width] {
			p := off[x+1]
			ids[p] = int32(c)
			off[x+1] = p + 1
		}
	}

	// A destroyed group's first member is complemented (made negative)
	// and restored once every group is destroyed.
	q := newBucketQueue(sup, maxSup)
	for _, x := range q.order {
		k := sup[x]
		for _, c := range ids[off[x]:off[x+1]] {
			grp := members[width*int(c) : width*int(c)+width]
			if grp[0] < 0 {
				continue
			}
			for _, y := range grp {
				if sup[y] > k {
					q.decrement(y)
				}
			}
			grp[0] = ^grp[0]
		}
	}
	for c := 0; c < len(members); c += width {
		members[c] = ^members[c]
	}
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
