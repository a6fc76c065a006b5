package measures

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// The merge enumeration and bin-sort peel the (r,s)-nucleus
// decomposition used before it moved onto the oriented listing and
// PeelCliques, kept as oracles: triangles and 4-cliques come from
// intersecting full sorted neighbor lists, triangles are keyed by
// sorted vertex triple through a map, and the peel walks a per-clique
// incidence list with explicit processed and alive flags.

// enumTriangles lists every triangle of g as a sorted vertex triple
// (u < v < w). Enumeration walks each edge (u,v) with u < v and
// intersects the sorted neighbor lists of u and v, keeping only third
// vertices w > v so that each triangle is reported exactly once.
func enumTriangles(g *graph.Graph) [][3]int32 {
	var tris [][3]int32
	for _, e := range g.Edges() {
		commonNeighbors(g.Neighbors(e.U), g.Neighbors(e.V), func(w int32) {
			if w > e.V {
				tris = append(tris, [3]int32{e.U, e.V, w})
			}
		})
	}
	return tris
}

// enumFourCliques lists every 4-clique of g as a sorted vertex
// quadruple. For each triangle (u,v,w) it intersects the three
// neighbor lists and keeps fourth vertices x > w, so each K4 is
// reported exactly once.
func enumFourCliques(g *graph.Graph, tris [][3]int32) [][4]int32 {
	var quads [][4]int32
	for _, t := range tris {
		u, v, w := t[0], t[1], t[2]
		for _, x := range intersect3(g.Neighbors(u), g.Neighbors(v), g.Neighbors(w)) {
			if x > w {
				quads = append(quads, [4]int32{u, v, w, x})
			}
		}
	}
	return quads
}

// intersect3 returns the sorted intersection of three sorted slices.
func intersect3(a, b, c []int32) []int32 {
	var out []int32
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) && k < len(c) {
		x, y, z := a[i], b[j], c[k]
		m := max(x, y, z)
		if x == m && y == m && z == m {
			out = append(out, m)
			i++
			j++
			k++
			continue
		}
		if x < m {
			i++
		}
		if y < m {
			j++
		}
		if z < m {
			k++
		}
	}
	return out
}

// fourCliqueKappaMerge is the (3,4) nucleus number of every triangle,
// keyed by its sorted vertex triple.
func fourCliqueKappaMerge(g *graph.Graph) map[[3]int32]int32 {
	tris := enumTriangles(g)
	triID := make(map[[3]int32]int32, len(tris))
	for i, t := range tris {
		triID[t] = int32(i)
	}
	var members [][]int32
	for _, q := range enumFourCliques(g, tris) {
		u, v, w, x := q[0], q[1], q[2], q[3]
		members = append(members, []int32{
			triID[[3]int32{u, v, w}],
			triID[[3]int32{u, v, x}],
			triID[[3]int32{u, w, x}],
			triID[[3]int32{v, w, x}],
		})
	}
	kappa := peelMerge(len(tris), members)
	out := make(map[[3]int32]int32, len(tris))
	for i, t := range tris {
		out[t] = kappa[i]
	}
	return out
}

// fourCliqueKappa is ListFourCliques peeled by PeelCliques, keyed like
// fourCliqueKappaMerge.
func fourCliqueKappa(g *graph.Graph) map[[3]int32]int32 {
	sup, tris, quads := ListFourCliques(g)
	PeelCliques(sup, quads, 4)
	out := make(map[[3]int32]int32, len(sup))
	for t, k := range sup {
		out[[3]int32(tris[3*t:3*t+3])] = k
	}
	return out
}

// peelMerge runs the bucket-based peeling that assigns κ to every
// r-clique: repeatedly remove an r-clique of minimum remaining
// s-clique degree; its κ is the running maximum of the degrees seen at
// removal time. Removing an r-clique destroys every s-clique containing
// it, which decrements the degree of the s-clique's surviving members.
func peelMerge(numR int, members [][]int32) []int32 {
	deg := make([]int32, numR)
	inc := make([][]int32, numR)
	for sc, ms := range members {
		for _, r := range ms {
			inc[r] = append(inc[r], int32(sc))
		}
	}
	maxDeg := int32(0)
	for i := range deg {
		deg[i] = int32(len(inc[i]))
		maxDeg = max(maxDeg, deg[i])
	}

	// Bin sort r-cliques by degree: vert holds clique IDs ordered by
	// degree, pos[i] is i's index in vert, bin[d] is the start of
	// degree-d cliques in vert.
	bin := make([]int32, maxDeg+2)
	for _, dg := range deg {
		bin[dg]++
	}
	start := int32(0)
	for dg := int32(0); dg <= maxDeg; dg++ {
		cnt := bin[dg]
		bin[dg] = start
		start += cnt
	}
	vert := make([]int32, numR)
	pos := make([]int32, numR)
	for i := int32(0); i < int32(numR); i++ {
		pos[i] = bin[deg[i]]
		vert[pos[i]] = i
		bin[deg[i]]++
	}
	for dg := maxDeg; dg > 0; dg-- {
		bin[dg] = bin[dg-1]
	}
	bin[0] = 0

	kappa := make([]int32, numR)
	processed := make([]bool, numR)
	alive := make([]bool, len(members))
	for i := range alive {
		alive[i] = true
	}
	k := int32(0)
	for idx := 0; idx < numR; idx++ {
		rc := vert[idx]
		k = max(k, deg[rc])
		kappa[rc] = k
		processed[rc] = true
		for _, sc := range inc[rc] {
			if !alive[sc] {
				continue
			}
			alive[sc] = false
			for _, other := range members[sc] {
				if processed[other] || deg[other] <= deg[rc] {
					continue
				}
				// Move `other` one bucket down: swap it with the first
				// clique of its current bucket, then shift the bucket
				// boundary.
				dg := deg[other]
				p, fp := pos[other], bin[dg]
				first := vert[fp]
				if first != other {
					vert[p], vert[fp] = first, other
					pos[other], pos[first] = fp, p
				}
				bin[dg]++
				deg[other]--
			}
		}
	}
	return kappa
}

// nucleusCases are triangleCases plus the Erdős–Rényi graphs and the
// two bridged K4s the nucleus package's own tests decompose.
func nucleusCases(t *testing.T) map[string]*graph.Graph {
	cases := triangleCases(t)
	for i, np := range []struct {
		n int
		p float64
	}{{40, 0.15}, {30, 0.25}, {25, 0.3}, {22, 0.35}, {35, 0.2}} {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed + 10*int64(i)))
			b := graph.NewBuilder(np.n)
			for u := 0; u < np.n; u++ {
				for v := u + 1; v < np.n; v++ {
					if rng.Float64() < np.p {
						b.AddEdge(int32(u), int32(v))
					}
				}
			}
			cases[fmt.Sprintf("gnp-%d-%g-%d", np.n, np.p, seed)] = b.Build()
		}
	}
	b := graph.NewBuilder(8)
	for u := int32(0); u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			b.AddEdge(u, v)
			b.AddEdge(u+4, v+4)
		}
	}
	b.AddEdge(3, 4)
	cases["two-K4s-bridged"] = b.Build()
	return cases
}

// TestNucleusPeelMatchesMergeOracle checks κ for all three (r,s) pairs
// bit for bit against the merge enumeration and bin-sort peel: (1,2)
// is CoreNumbers, (2,3) is TrussNumbers and PeelCliques over
// ListTriangles, and (3,4) is PeelCliques over ListFourCliques,
// compared per sorted vertex triple.
func TestNucleusPeelMatchesMergeOracle(t *testing.T) {
	for name, g := range nucleusCases(t) {
		edges := make([][]int32, g.NumEdges())
		for i, e := range g.Edges() {
			edges[i] = []int32{e.U, e.V}
		}
		if got, want := CoreNumbers(g), peelMerge(g.NumVertices(), edges); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: (1,2) κ differs from the merge oracle", name)
		}
		var tris [][]int32
		for _, tr := range enumTriangles(g) {
			u, v, w := tr[0], tr[1], tr[2]
			tris = append(tris, []int32{g.EdgeID(u, v), g.EdgeID(u, w), g.EdgeID(v, w)})
		}
		want := peelMerge(g.NumEdges(), tris)
		sup, edgeTris := ListTriangles(g)
		PeelCliques(sup, edgeTris, 3)
		if !reflect.DeepEqual(sup, want) || !reflect.DeepEqual(TrussNumbers(g), want) {
			t.Errorf("%s: (2,3) κ differs from the merge oracle", name)
		}
		if got, want := fourCliqueKappa(g), fourCliqueKappaMerge(g); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: (3,4) κ differs from the merge oracle", name)
		}
	}
}

// TestPeelCliquesRestoresMembers checks that the peel's destroyed-group
// marks are undone: a decomposition's groups are its exported result.
func TestPeelCliquesRestoresMembers(t *testing.T) {
	g := completeGraph(7)
	sup, _, quads := ListFourCliques(g)
	before := append([]int32(nil), quads...)
	PeelCliques(sup, quads, 4)
	if !reflect.DeepEqual(quads, before) {
		t.Fatal("PeelCliques left its groups changed")
	}
}

func TestIntersect3(t *testing.T) {
	got := intersect3([]int32{1, 2, 3, 5, 9}, []int32{2, 3, 4, 9}, []int32{0, 2, 9})
	want := []int32{2, 9}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("intersect3 = %v, want %v", got, want)
	}
	if out := intersect3(nil, []int32{1}, []int32{1}); len(out) != 0 {
		t.Fatalf("intersect3 with empty input = %v, want empty", out)
	}
}
