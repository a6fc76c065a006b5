// Package nucleus implements the (r,s)-nucleus decomposition of
// Sariyuce, Seshadhri, Pinar and Catalyurek (WWW 2015), the
// related-work comparator discussed in the paper's Section II-G.
//
// An (r,s)-nucleus (r < s) is a maximal subgraph, formed as a union of
// s-cliques, in which every r-clique participates in at least k
// s-cliques, and which is connected through s-cliques sharing
// r-cliques. The familiar special cases are:
//
//	(1,2): k-cores        (vertices in edges)
//	(2,3): k-trusses      (edges in triangles, triangle-connected)
//	(3,4): K4 nuclei      (triangles in 4-cliques)
//
// Decompose peels r-cliques in the style of Batagelj–Zaveršnik to
// assign each r-clique its nucleus number κ(R): the largest k such
// that R belongs to a k-(r,s)-nucleus. Forest then materializes the
// "forest of nuclei" hierarchy — and does so by reusing the paper's
// own machinery: the nuclei at every k are exactly the maximal
// k-connected components of a scalar graph over r-cliques and
// s-cliques (an s-clique's scalar is the minimum κ of its r-cliques),
// so the forest is the paper's super scalar tree of that graph. This
// realizes, in code, the paper's claim that maximal α-connected
// components subsume nucleus-style hierarchies.
package nucleus

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/measures"
)

// Decomposition is the result of an (r,s)-nucleus decomposition. Its
// clique lists are flat, R or S entries per clique.
type Decomposition struct {
	R, S int

	// RCliques lists each r-clique as a sorted vertex tuple: r-clique i
	// is RCliques[R*i : R*i+R]. Its index i is the r-clique ID used
	// everywhere else. Vertices and edges keep their graph IDs;
	// triangles are numbered in the oriented listing's order.
	RCliques []int32

	// Members lists the r-clique IDs contained in each s-clique: the
	// S faces of s-clique c are Members[S*c : S*c+S].
	Members []int32

	// Kappa[r] is the nucleus number κ of r-clique r: the largest k
	// such that the r-clique belongs to a k-(r,s)-nucleus.
	Kappa []int32
}

// Decompose computes the (r,s)-nucleus decomposition of g. The
// supported pairs are (1,2), (2,3) and (3,4), the three instances
// Sariyuce et al. single out as practical. The cliques and κ come from
// the measures kernels: κ is CoreNumbers for (1,2), and (2,3) and
// (3,4) peel the oriented listing's triangles and 4-cliques with
// measures.PeelCliques, which for (2,3) is TrussNumbers.
func Decompose(g *graph.Graph, r, s int) (*Decomposition, error) {
	d := &Decomposition{R: r, S: s}
	switch {
	case r == 1 && s == 2:
		n := g.NumVertices()
		flat := make([]int32, n+2*g.NumEdges())
		d.RCliques, d.Members = flat[:n:n], flat[n:]
		for v := range d.RCliques {
			d.RCliques[v] = int32(v)
		}
		for i, e := range g.Edges() {
			d.Members[2*i], d.Members[2*i+1] = e.U, e.V
		}
		d.Kappa = measures.CoreNumbers(g)
	case r == 2 && s == 3:
		d.RCliques = make([]int32, 2*g.NumEdges())
		for i, e := range g.Edges() {
			d.RCliques[2*i], d.RCliques[2*i+1] = e.U, e.V
		}
		d.Kappa, d.Members = measures.ListTriangles(g)
		measures.PeelCliques(d.Kappa, d.Members, 3)
	case r == 3 && s == 4:
		d.Kappa, d.RCliques, d.Members = measures.ListFourCliques(g)
		measures.PeelCliques(d.Kappa, d.Members, 4)
	default:
		return nil, fmt.Errorf("nucleus: unsupported (r,s)=(%d,%d); want (1,2), (2,3) or (3,4)", r, s)
	}
	return d, nil
}

// KappaField returns κ as a float64 scalar field over r-cliques,
// ready to feed into the terrain pipeline.
func (d *Decomposition) KappaField() []float64 {
	out := make([]float64, len(d.Kappa))
	for i, k := range d.Kappa {
		out[i] = float64(k)
	}
	return out
}

// MaxKappa reports the largest nucleus number, or 0 when the graph has
// no r-cliques.
func (d *Decomposition) MaxKappa() int32 {
	var max int32
	for _, k := range d.Kappa {
		if k > max {
			max = k
		}
	}
	return max
}

// Forest builds the forest of nuclei as a super scalar tree, using the
// paper's own framework: construct an auxiliary scalar graph whose
// vertices are the r-cliques (scalar κ(R)) and the s-cliques (scalar
// min κ over members, so a path through an s-clique certifies that the
// whole s-clique survives at that level), connect each s-clique to its
// members, and take the super scalar tree. Its maximal k-connected
// components, restricted to r-clique vertices, are exactly the
// k-(r,s)-nuclei.
//
// The returned AuxiliaryTree wraps the tree with the id mapping needed
// to read nuclei back out.
func (d *Decomposition) Forest() *AuxiliaryTree {
	numR, numS := len(d.Kappa), len(d.Members)/d.S
	values := make([]float64, numR+numS)
	for i, k := range d.Kappa {
		values[i] = float64(k)
	}
	edges := make([]graph.Edge, 0, len(d.Members))
	for sc := range numS {
		ms := d.Members[d.S*sc : d.S*sc+d.S]
		min := d.Kappa[ms[0]]
		for _, r := range ms[1:] {
			if d.Kappa[r] < min {
				min = d.Kappa[r]
			}
		}
		values[numR+sc] = float64(min)
		for _, r := range ms {
			edges = append(edges, graph.Edge{U: r, V: int32(numR + sc)})
		}
	}
	aux := graph.FromEdges(numR+numS, edges)
	st := core.VertexSuperTree(core.MustVertexField(aux, values))
	return &AuxiliaryTree{Tree: st, NumR: numR}
}

// AuxiliaryTree is the forest of nuclei expressed as a super scalar
// tree over the auxiliary r-clique/s-clique graph.
type AuxiliaryTree struct {
	// Tree is the super scalar tree; items 0..NumR-1 are r-cliques,
	// items NumR.. are s-cliques.
	Tree *core.SuperTree

	// NumR is the number of r-clique items.
	NumR int
}

// NucleiAt returns the k-(r,s)-nuclei as sets of r-clique IDs: the
// maximal k-connected components of the auxiliary graph with s-clique
// vertices filtered out. Components containing no r-clique (possible
// only for empty inputs) are dropped.
func (a *AuxiliaryTree) NucleiAt(k int32) [][]int32 {
	comps := a.Tree.ComponentsAt(float64(k))
	out := make([][]int32, 0, len(comps))
	for _, comp := range comps {
		rcs := make([]int32, 0, len(comp))
		for _, item := range comp {
			if int(item) < a.NumR {
				rcs = append(rcs, item)
			}
		}
		if len(rcs) > 0 {
			out = append(out, rcs)
		}
	}
	return out
}
