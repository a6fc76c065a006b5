// Package oracle is the brute-force reference for Definition 1 of the
// paper: the maximal α-connected components of a scalar field on a
// graph, found by flood fill over the items whose value is at least α.
// It builds no tree and shares no code with the union-find sweeps it
// checks. Only tests import it; no binary links it.
package oracle

import (
	"slices"

	"repro/internal/graph"
)

// Components returns the maximal α-connected components of the field
// values over g: the items with value >= α, joined when they are
// adjacent vertices (vertex fields) or edges sharing an endpoint (edge
// fields, Definition 3). Each component is sorted, and they are ordered
// by their smallest item. It returns nil when no item reaches α.
func Components(g *graph.Graph, values []float64, edge bool, alpha float64) [][]int32 {
	seen := make([]bool, len(values))
	var comps [][]int32
	for start := range values {
		if seen[start] || !(values[start] >= alpha) {
			continue
		}
		seen[start] = true
		comp := []int32{int32(start)}
		for i := 0; i < len(comp); i++ {
			var next []int32
			if edge {
				e := g.Edges()[comp[i]]
				next = append(append(next, g.IncidentEdges(e.U)...), g.IncidentEdges(e.V)...)
			} else {
				next = g.Neighbors(comp[i])
			}
			for _, x := range next {
				if !seen[x] && values[x] >= alpha {
					seen[x] = true
					comp = append(comp, x)
				}
			}
		}
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	return comps
}

// MCC returns the maximal connected component of item (Definition 2):
// its component at α = values[item].
func MCC(g *graph.Graph, values []float64, edge bool, item int32) []int32 {
	for _, c := range Components(g, values, edge, values[item]) {
		if _, ok := slices.BinarySearch(c, item); ok {
			return c
		}
	}
	return nil
}
