package measures

import "repro/internal/graph"

// ComponentDiameter computes, for every vertex, the diameter of its
// connected component — the greatest shortest-path distance between
// any two of the component's vertices (0 for isolated vertices). The
// diameter is the maximum eccentricity over the component, so the
// kernel rides the batched MS-BFS engine like Eccentricity does, but
// with an early cutoff that usually avoids sweeping every vertex:
//
// For any vertex v, diam ≤ 2·ecc(v) (go v-to-anywhere twice), and
// every measured eccentricity is a lower bound. The kernel tracks, per
// component, lb = max eccentricity seen and the minimum eccentricity
// seen; once lb == 2·min the bounds have met and the component's
// diameter is exact with no further sources needed. Stars, cliques,
// balanced trees, and most small-world cores resolve within the first
// batch or two; the worst case (odd cycles, paths) degrades to the
// full max-eccentricity sweep, never worse. Resolved components stop
// contributing sources, so mixed graphs spend their batches on the
// components that still need them.
//
// As a registry measure the field is constant per component, which
// makes it most useful as a color field (terrain height stays a
// centrality; color shows which peaks live in tight versus stretched
// components) and as a cheap scalar: Analyze any graph with measure
// "diameter" and read the max.
func ComponentDiameter(g *graph.Graph) []float64 {
	n := g.NumVertices()
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	labels, count := graph.ConnectedComponents(g)
	lb := make([]int32, count)     // max eccentricity seen: the diameter lower bound
	minEcc := make([]int32, count) // min eccentricity seen: 2·minEcc is the upper bound
	remaining := make([]int32, count)
	resolved := make([]bool, count)
	for i := range minEcc {
		minEcc[i] = -1
	}
	for _, c := range labels {
		remaining[c]++
	}
	unresolved := count

	var scratch graph.MSBFSScratch
	var batch [graph.MSBFSBatch]int32
	var ecc [graph.MSBFSBatch]int32
	visit := func(level int32, counts *[graph.MSBFSBatch]int32) {
		for i, c := range counts {
			if c != 0 {
				ecc[i] = level
			}
		}
	}

	for v := int32(0); v < int32(n) && unresolved > 0; {
		k := 0
		for ; v < int32(n) && k < graph.MSBFSBatch; v++ {
			if resolved[labels[v]] {
				continue
			}
			batch[k] = v
			k++
		}
		if k == 0 {
			break
		}
		clear(ecc[:k])
		scratch.RunBatch(g, labels, batch[:k], visit)
		for i := 0; i < k; i++ {
			c := labels[batch[i]]
			e := ecc[i]
			if e > lb[c] {
				lb[c] = e
			}
			if minEcc[c] < 0 || e < minEcc[c] {
				minEcc[c] = e
			}
			remaining[c]--
			if !resolved[c] && (remaining[c] == 0 || lb[c] == 2*minEcc[c]) {
				resolved[c] = true
				unresolved--
			}
		}
	}
	for v, c := range labels {
		out[v] = float64(lb[c])
	}
	return out
}
