package query

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
)

// TestRelabelingPermutesAnswers is a metamorphic check of the served
// ops: relabeling a graph's vertices by a permutation must map every
// alpha_cut component and every component_of answer through the
// permutation (vertex measures) or through the edge permutation it
// induces (edge measures), at every level, between levels and beyond
// them. Both graphs' answers are also checked against the Definition 1
// oracle.
func TestRelabelingPermutesAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		g := definitionGraph(rng)
		perm := rng.Perm(g.NumVertices())
		edges := make([]graph.Edge, 0, g.NumEdges())
		for _, e := range g.Edges() {
			edges = append(edges, graph.Edge{U: int32(perm[e.U]), V: int32(perm[e.V])})
		}
		h := graph.FromEdges(g.NumVertices(), edges)
		// vertexMap and edgeMap take an item of g to the item it becomes in h.
		vertexMap := make([]int32, g.NumVertices())
		for v, p := range perm {
			vertexMap[v] = int32(p)
		}
		edgeMap := make([]int32, g.NumEdges())
		for id, e := range g.Edges() {
			edgeMap[id] = h.EdgeID(vertexMap[e.U], vertexMap[e.V])
		}
		e := NewEngine(Options{})
		e.RegisterDataset("g", g)
		e.RegisterDataset("h", h)
		for _, measure := range []string{"kcore", "onion", "ktruss"} {
			label := fmt.Sprintf("trial %d %s", trial, measure)
			sg, err := e.Snapshot(Key{Dataset: "g", Measure: measure})
			if err != nil {
				t.Fatal(err)
			}
			sh, err := e.Snapshot(Key{Dataset: "h", Measure: measure})
			if err != nil {
				t.Fatal(err)
			}
			itemMap := vertexMap
			if sg.Edge {
				itemMap = edgeMap
			}
			for i, x := range itemMap {
				if sh.Values[x] != sg.Values[i] {
					t.Fatalf("%s: item %d has value %g, relabeled %d has %g", label, i, sg.Values[i], x, sh.Values[x])
				}
			}
			alphas := []float64{math.Inf(-1), math.Inf(1)}
			for _, v := range sg.Values {
				alphas = append(alphas, v, v+0.5)
			}
			for _, alpha := range alphas {
				ops := []Op{{Op: OpAlphaCut, Alpha: alpha, Limit: -1}}
				for item := range sg.Values {
					ops = append(ops, Op{Op: OpComponentOf, Item: int32(item), Alpha: alpha, Limit: -1})
				}
				// Item i of g is asked at the same position as its image in h.
				opsH := slices.Clone(ops)
				for i, x := range itemMap {
					opsH[1+i].Item = x
				}
				rg, rh := e.Resolve(sg, ops), e.Resolve(sh, opsH)
				cutG, cutH := cutComponents(rg[0]), cutComponents(rh[0])
				want := oracle.Components(g, sg.Values, sg.Edge, alpha)
				if !slices.EqualFunc(cutG, want, slices.Equal) {
					t.Fatalf("%s α=%g: alpha_cut %v, Definition 1 %v", label, alpha, cutG, want)
				}
				if want := oracle.Components(h, sh.Values, sh.Edge, alpha); !slices.EqualFunc(cutH, want, slices.Equal) {
					t.Fatalf("%s α=%g: relabeled alpha_cut %v, Definition 1 %v", label, alpha, cutH, want)
				}
				if mapped := mapComponents(cutG, itemMap); !slices.EqualFunc(mapped, cutH, slices.Equal) {
					t.Fatalf("%s α=%g: alpha_cut mapped through the relabeling %v, relabeled alpha_cut %v", label, alpha, mapped, cutH)
				}
				for i := range sg.Values {
					if got, w := rg[1+i].Items, componentOf(want, int32(i)); !slices.Equal(got, w) {
						t.Fatalf("%s α=%g: component_of(%d) %v, Definition 1 %v", label, alpha, i, got, w)
					}
					mapped := mapItems(rg[1+i].Items, itemMap)
					if got := rh[1+i].Items; !slices.Equal(mapped, got) {
						t.Fatalf("%s α=%g: component_of(%d) mapped %v, relabeled component_of(%d) %v",
							label, alpha, i, mapped, itemMap[i], got)
					}
				}
			}
		}
	}
}

// cutComponents returns the item lists of an alpha_cut answer.
func cutComponents(r OpResult) [][]int32 {
	var comps [][]int32
	for _, c := range r.Components {
		comps = append(comps, c.Items)
	}
	return comps
}

// mapItems maps each item through itemMap and sorts the result.
func mapItems(items, itemMap []int32) []int32 {
	out := make([]int32, len(items))
	for i, x := range items {
		out[i] = itemMap[x]
	}
	slices.Sort(out)
	return out
}

// mapComponents maps every component through itemMap and orders them
// as alpha_cut does, by smallest item.
func mapComponents(comps [][]int32, itemMap []int32) [][]int32 {
	var out [][]int32
	for _, c := range comps {
		out = append(out, mapItems(c, itemMap))
	}
	slices.SortFunc(out, func(a, b []int32) int { return int(a[0] - b[0]) })
	return out
}
