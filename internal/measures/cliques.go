package measures

import (
	"slices"

	"repro/internal/graph"
)

// ListFourCliques lists the triangles and the 4-cliques of g, the
// r- and s-cliques of the (3,4) nucleus decomposition, in the oriented
// listing's order. Triangle t is the sorted vertex triple
// tris[3t:3t+3]; 4-clique c is the IDs of its four triangles,
// quads[4c:4c+4]; sup[t] counts the 4-cliques of triangle t. So
// PeelCliques(sup, quads, 4) yields the (3,4) nucleus numbers. The
// three share one allocation, sized by a counting pass, so the count
// of allocations is the same on every graph.
//
// The triangles from forward edge (a, b) are the common forward
// neighbours c of a and b in ID order, so they form one run of IDs
// sorted by c. Triangle (a, b, c), in rank order, extends to the
// 4-cliques {a, b, c, d} with d in that run and in N+(c), found by one
// merge (Chiba & Nishizeki 1985); the faces (a, c, d) and (b, c, d)
// are found by binary search in their own runs. The counting pass is
// Danisch et al.'s kClist (WWW 2018) for k = 4.
func ListFourCliques(g *graph.Graph) (sup, tris, quads []int32) {
	o := orient(g)
	off, adj, mark := o.off, o.adj, o.mark
	n, m := int32(len(off)-1), len(adj)

	// Count: mark N+(u) with 1 and N+(u) ∩ N+(v) with 2; triangle
	// (u, v, w) then has one 4-clique per d in N+(w) marked 2.
	numT, numQ := 0, 0
	for u := range n {
		fwd := adj[off[u]:off[u+1]]
		for _, w := range fwd {
			mark[w] = 1
		}
		for _, v := range fwd {
			nv := adj[off[v]:off[v+1]]
			for _, w := range nv {
				if mark[w] != 0 {
					mark[w] = 2
				}
			}
			for _, w := range nv {
				if mark[w] != 2 {
					continue
				}
				numT++
				for _, d := range adj[off[w]:off[w+1]] {
					if mark[d] == 2 {
						numQ++
					}
				}
			}
			for _, w := range nv {
				if mark[w] != 0 {
					mark[w] = 1
				}
			}
		}
		for _, w := range fwd {
			mark[w] = 0
		}
	}

	// runs[p] is the first triangle from forward edge p (an index into
	// adj), and runs[m] = numT. It shares the results' allocation.
	slab := make([]int32, 4*numT+4*numQ+m+1)
	sup, slab = slab[:numT:numT], slab[numT:]
	tris, slab = slab[:3*numT:3*numT], slab[3*numT:]
	quads, runs := slab[:4*numQ:4*numQ], slab[4*numQ:]

	// List the triangles in rank order (a, b, c), run by run.
	t := int32(0)
	for u := range n {
		fwd := adj[off[u]:off[u+1]]
		for _, w := range fwd {
			mark[w] = 1
		}
		for p := off[u]; p < off[u+1]; p++ {
			runs[p] = t
			v := adj[p]
			for _, w := range adj[off[v]:off[v+1]] {
				if mark[w] != 0 {
					tris[3*t], tris[3*t+1], tris[3*t+2] = u, v, w
					t++
				}
			}
		}
		for _, w := range fwd {
			mark[w] = 0
		}
	}
	runs[m] = t

	// find returns the ID of triangle (a, b, d) in the run of forward
	// edge p = (a, b).
	find := func(p, d int32) int32 {
		lo, hi := runs[p], runs[p+1]
		for lo < hi {
			mid := int32(uint32(lo+hi) >> 1)
			if tris[3*mid+2] < d {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}

	// Walk the triangles again in the same order, now with mark[w] =
	// 1 + the forward edge (u, w), and list each one's 4-cliques.
	t, c := 0, 0
	for u := range n {
		for p := off[u]; p < off[u+1]; p++ {
			mark[adj[p]] = p + 1
		}
		for p := off[u]; p < off[u+1]; p++ {
			v := adj[p]
			for q := off[v]; q < off[v+1]; q++ {
				w := adj[q]
				uw := mark[w] - 1
				if uw < 0 {
					continue
				}
				i, end, nw := runs[p], runs[p+1], adj[off[w]:off[w+1]]
				for j := 0; i < end && j < len(nw); {
					switch d := tris[3*i+2]; {
					case d < nw[j]:
						i++
					case d > nw[j]:
						j++
					default:
						quad := quads[4*c : 4*c+4]
						quad[0], quad[1], quad[2], quad[3] = t, i, find(uw, d), find(q, d)
						for _, f := range quad {
							sup[f]++
						}
						c++
						i++
						j++
					}
				}
				t++
			}
		}
		for _, w := range adj[off[u]:off[u+1]] {
			mark[w] = 0
		}
	}

	for i := 0; i < len(tris); i += 3 {
		slices.Sort(tris[i : i+3])
	}
	return sup, tris, quads
}
