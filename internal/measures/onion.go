package measures

import "repro/internal/graph"

// KatzCentrality computes Katz centrality x = Σ_k α^k A^k 1 by Jacobi
// iteration on x = α A x + 1, normalized to unit maximum. The
// attenuation alpha must satisfy alpha < 1/λ_max for convergence; a
// safe practical choice is a fraction of 1/maxDegree, and passing
// alpha <= 0 selects 0.9/(maxDegree+1) automatically. Iteration stops
// when the L1 change drops below tol or after maxIter rounds.
//
// Katz complements the paper's degree/betweenness pair with a
// walk-based centrality, giving the multi-scalar analysis of Section
// II-F a third field with different locality behaviour.
func KatzCentrality(g *graph.Graph, alpha, tol float64, maxIter int) []float64 {
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	if alpha <= 0 {
		alpha = 0.9 / float64(g.MaxDegree()+1)
	}
	x := make([]float64, n)
	next := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	for iter := 0; iter < maxIter; iter++ {
		var diff float64
		for v := int32(0); v < int32(n); v++ {
			sum := 0.0
			for _, u := range g.Neighbors(v) {
				sum += x[u]
			}
			next[v] = 1 + alpha*sum
			diff += abs(next[v] - x[v])
		}
		x, next = next, x
		if diff < tol {
			break
		}
	}
	// Normalize to unit maximum so fields are comparable across graphs.
	max := 0.0
	for _, v := range x {
		if v > max {
			max = v
		}
	}
	if max > 0 {
		for i := range x {
			x[i] /= max
		}
	}
	return x
}

// OnionLayers computes the onion decomposition (Hébert-Dufresne,
// Grochow, Allard): a refinement of the k-core peeling in which layer
// l contains the vertices removed in the l-th peeling round. Within
// one core shell, low layers are the periphery of the shell and high
// layers its center, so the layer field makes a strictly finer terrain
// than KC(v) — a useful drill-down when a k-core peak is too flat to
// show internal structure.
//
// Layers are numbered from 1. The companion core numbers equal
// CoreNumbers(g); each peeling round removes every vertex whose
// remaining degree is <= the current core threshold. The rounds are
// those of the k-core peel itself (peelCores), so the decomposition
// costs O(n+m).
func OnionLayers(g *graph.Graph) []int32 {
	layer := make([]int32, g.NumVertices())
	peelCores(g, layer)
	return layer
}

// OnionLayersFloat returns OnionLayers as a float64 scalar field.
func OnionLayersFloat(g *graph.Graph) []float64 {
	layers := OnionLayers(g)
	out := make([]float64, len(layers))
	for i, l := range layers {
		out[i] = float64(l)
	}
	return out
}
