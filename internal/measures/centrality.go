package measures

import (
	"math/rand"

	"repro/internal/graph"
	"repro/internal/par"
)

// DegreeCentrality returns each vertex's degree as a scalar field —
// the S_d field of the paper's Section III-C comparison.
func DegreeCentrality(g *graph.Graph) []float64 {
	out := make([]float64, g.NumVertices())
	for v := range out {
		out[v] = float64(g.Degree(int32(v)))
	}
	return out
}

// BetweennessCentrality computes exact betweenness centrality on the
// unweighted graph with Brandes' accumulation, run on the batched
// MS-Brandes engine: 64 sources advance per traversal, sharing the
// forward frontier expansion and the reverse dependency sweep, still
// O(|V|·|E|) total but with the per-edge machinery paid once per
// 64-source batch. Scores count each unordered pair once (the
// undirected convention: accumulated values are halved). Batches are
// striped over par.Workers(|V|) workers, and the fixed stripe merge
// (msbrandes.go) makes the field bitwise identical for any worker
// count; it agrees with the per-source Brandes oracle of the tests up
// to floating-point summation order.
func BetweennessCentrality(g *graph.Graph) []float64 {
	n := g.NumVertices()
	return approxBetweenness(g, n, betweennessSeed, par.Workers(n)) // samples = |V|: exact
}

// ApproxBetweennessCentrality estimates betweenness from a uniform
// sample of pivot sources, scaling the accumulated dependencies by
// n/samples. It keeps Table II-scale graphs tractable: exact Brandes
// on millions of vertices is out of reach on one machine. Pivots are
// drawn by a seeded O(samples) partial Fisher–Yates shuffle and the
// accumulation runs on the batched MS-Brandes engine, bitwise
// identical for any worker count. samples >= |V| computes exact
// betweenness; samples <= 0 draws no pivots and returns the all-zero
// field.
func ApproxBetweennessCentrality(g *graph.Graph, samples int, seed int64) []float64 {
	return approxBetweenness(g, samples, seed, par.Workers(g.NumVertices()))
}

// sampleSources draws `samples` distinct vertices uniformly without
// replacement in O(samples) time and space: a partial Fisher–Yates
// shuffle over the virtual identity array [0, n), tracking only the
// displaced entries in a map instead of materializing (and fully
// shuffling) all n entries, which the previous rng.Perm implementation
// did on every sampled analysis — O(n) work to draw a few hundred
// pivots from a million-vertex graph.
func sampleSources(n, samples int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	displaced := make(map[int]int, samples)
	sources := make([]int32, samples)
	for i := 0; i < samples; i++ {
		j := i + rng.Intn(n-i)
		vi := i
		if x, ok := displaced[i]; ok {
			vi = x
			delete(displaced, i) // position i is consumed, free its slot
		}
		vj := j
		if x, ok := displaced[j]; ok {
			vj = x
		}
		if j == i {
			vj = vi
		} else {
			displaced[j] = vi
		}
		sources[i] = int32(vj)
	}
	return sources
}

// ClosenessCentrality computes, for every vertex, the standard
// component-normalized closeness (Wasserman–Faust): the reachable
// fraction squared over the mean distance. Isolated vertices score 0.
// It runs on the batched MS-BFS engine — 64 sources per traversal,
// batches strided over par.Workers(|V|) workers — and is bit-identical
// to a per-source BFS fold (the fold's integer sums are exact in any
// order); see distance.go for the fold contract.
func ClosenessCentrality(g *graph.Graph) []float64 {
	return msbfsFields(g, distSel{close: true}, par.Workers(g.NumVertices())).clo
}

// HarmonicCentrality computes Σ_{u≠v} 1/d(v,u) with 1/∞ = 0, the
// harmonic centrality the paper's introduction lists among global
// connectivity measures. It runs on the batched MS-BFS engine with the
// level-count fold Σ_L c_L/L (ascending L), which agrees with a
// vertex-order per-source fold up to floating-point summation order;
// see distance.go for the fold contract.
func HarmonicCentrality(g *graph.Graph) []float64 {
	return msbfsFields(g, distSel{harm: true}, par.Workers(g.NumVertices())).har
}

// PageRank computes PageRank with uniform teleport by power iteration
// on the undirected graph (each undirected edge acts as two directed
// edges). Iteration stops when the L1 change drops below tol or after
// maxIter rounds. Dangling (isolated) vertices redistribute uniformly.
func PageRank(g *graph.Graph, damping float64, tol float64, maxIter int) []float64 {
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	for iter := 0; iter < maxIter; iter++ {
		var dangling float64
		for i := range next {
			next[i] = 0
		}
		for v := int32(0); v < int32(n); v++ {
			d := g.Degree(v)
			if d == 0 {
				dangling += rank[v]
				continue
			}
			share := rank[v] / float64(d)
			for _, u := range g.Neighbors(v) {
				next[u] += share
			}
		}
		base := (1-damping)/float64(n) + damping*dangling/float64(n)
		var diff float64
		for i := range next {
			next[i] = base + damping*next[i]
			diff += abs(next[i] - rank[i])
		}
		rank, next = next, rank
		if diff < tol {
			break
		}
	}
	return rank
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
