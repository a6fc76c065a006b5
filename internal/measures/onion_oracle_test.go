package measures

import "repro/internal/graph"

// onionLayersRounds is the round-by-round onion peel OnionLayers
// replaced, kept as its oracle: every round rescans all n vertices
// twice, once for the minimum remaining degree and once for the
// vertices at or below the threshold, so it costs O(n·L) for L layers.
func onionLayersRounds(g *graph.Graph) []int32 {
	n := g.NumVertices()
	layer := make([]int32, n)
	deg := make([]int32, n)
	removed := make([]bool, n)
	remaining := n
	for v := int32(0); v < int32(n); v++ {
		deg[v] = int32(g.Degree(v))
	}
	current := int32(0)
	l := int32(0)
	for remaining > 0 {
		// The next threshold is the minimum remaining degree.
		min := int32(1<<31 - 1)
		for v := int32(0); v < int32(n); v++ {
			if !removed[v] && deg[v] < min {
				min = deg[v]
			}
		}
		if min > current {
			current = min
		}
		// One onion round: peel every vertex at or below the threshold.
		l++
		var round []int32
		for v := int32(0); v < int32(n); v++ {
			if !removed[v] && deg[v] <= current {
				round = append(round, v)
			}
		}
		for _, v := range round {
			removed[v] = true
			layer[v] = l
			remaining--
		}
		for _, v := range round {
			for _, u := range g.Neighbors(v) {
				if !removed[u] {
					deg[u]--
				}
			}
		}
	}
	return layer
}
