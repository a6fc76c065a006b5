package measures

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/par"
)

// The per-source kernels below are the reference implementations the
// batched MS-BFS and MS-Brandes kernels replaced: one full BFS or
// Brandes pass per source. They live in test code as oracles only.

// perSourceBFS shards the vertices across cores and evaluates fold on
// each vertex's BFS distance vector, one reusable BFSScratch per
// worker, so the whole sweep performs O(1) allocations per worker
// rather than O(1) per source. It is the engine of the per-source
// oracles (PerSource* kernels below) the MS-BFS equivalence tests run
// against.
func perSourceBFS(g *graph.Graph, workers int, fold func(dist []int32) float64) []float64 {
	n := g.NumVertices()
	out := make([]float64, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var scratch graph.BFSScratch
			for v := w; v < n; v += workers {
				out[v] = fold(scratch.Distances(g, int32(v)))
			}
		}(w)
	}
	wg.Wait()
	return out
}

// PerSourceClosenessCentrality is the per-source closeness oracle: one
// full BFS per source with the vertex-order fold, sharded across cores
// above the par cutoff.
func PerSourceClosenessCentrality(g *graph.Graph) []float64 {
	n := g.NumVertices()
	return perSourceBFS(g, par.Workers(n), func(dist []int32) float64 {
		return closenessOf(dist, n)
	})
}

// PerSourceHarmonicCentrality is the per-source harmonic oracle; see
// PerSourceClosenessCentrality.
func PerSourceHarmonicCentrality(g *graph.Graph) []float64 {
	return perSourceBFS(g, par.Workers(g.NumVertices()), harmonicOf)
}

// closenessOf folds one source's BFS distances into its closeness
// score: the reference fold of the per-source oracle kernels the
// MS-BFS tests compare against.
func closenessOf(dist []int32, n int) float64 {
	var sum, reach float64
	for _, d := range dist {
		if d > 0 {
			sum += float64(d)
			reach++
		}
	}
	if sum == 0 {
		return 0
	}
	// Scale by the reachable fraction so vertices in small
	// components do not dominate.
	return reach * reach / (float64(n-1) * sum)
}

// harmonicOf folds one source's BFS distances into its harmonic score
// in vertex order: the reference fold of the per-source oracle kernels
// the MS-BFS tests compare against.
func harmonicOf(dist []int32) float64 {
	var sum float64
	for _, d := range dist {
		if d > 0 {
			sum += 1 / float64(d)
		}
	}
	return sum
}

// stridedSources returns worker w's share of the sources {w, w+workers,
// w+2·workers, …} below n, preallocated to its exact length. The
// strided partition keeps the load balanced when vertex IDs correlate
// with degree (as in generated graphs).
func stridedSources(w, n, workers int) []int32 {
	sources := make([]int32, 0, (n-w+workers-1)/workers)
	for s := w; s < n; s += workers {
		sources = append(sources, int32(s))
	}
	return sources
}

// PerSourceBetweennessCentrality is the per-source Brandes oracle: one
// full Brandes pass per source (betweennessInto), sources sharded
// across cores, each worker accumulating into a private vector with
// its own scratch, shards summed in worker order at the end. The
// MS-Brandes equivalence tests run against it.
func PerSourceBetweennessCentrality(g *graph.Graph) []float64 {
	n := g.NumVertices()
	workers := par.Workers(n)
	if workers <= 1 {
		return perSourceBetweennessSerial(g)
	}
	partials := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			bc := make([]float64, n)
			var scratch brandesScratch
			betweennessInto(g, stridedSources(w, n, workers), bc, &scratch)
			partials[w] = bc
		}(w)
	}
	wg.Wait()
	out := make([]float64, n)
	for _, p := range partials {
		for v := range out {
			out[v] += p[v]
		}
	}
	// Halve the doubled unordered pairs, as in betweennessFrom.
	for v := range out {
		out[v] *= 0.5
	}
	return out
}

// perSourceBetweennessSerial runs the per-source baseline on one
// goroutine over all sources.
func perSourceBetweennessSerial(g *graph.Graph) []float64 {
	n := g.NumVertices()
	sources := make([]int32, n)
	for i := range sources {
		sources[i] = int32(i)
	}
	return betweennessFrom(g, sources, 1)
}

// brandesScratch holds the per-worker state of the Brandes
// accumulation: shortest-path counts, distances, dependency
// accumulators, the BFS visitation order, and the bottom-up pending
// list of the direction-optimizing forward phase. One scratch serves
// any number of sources without further allocation.
type brandesScratch struct {
	sigma   []float64 // shortest-path counts
	dist    []int32
	delta   []float64 // dependency accumulators
	order   []int32
	pending []int32 // not-yet-discovered vertices, bottom-up levels only
}

// resize sizes the scratch for an n-vertex graph, reusing the existing
// buffers when they are large enough.
func (s *brandesScratch) resize(n int) {
	if cap(s.sigma) < n {
		s.sigma = make([]float64, n)
		s.dist = make([]int32, n)
		s.delta = make([]float64, n)
		s.order = make([]int32, 0, n)
		s.pending = make([]int32, 0, n)
	}
	s.sigma = s.sigma[:n]
	s.dist = s.dist[:n]
	s.delta = s.delta[:n]
}

// Direction-switch policy of the Brandes forward phase, mirroring the
// MS-BFS engine's: go bottom-up when the frontier's edge budget exceeds
// 1/brandesAlpha of the undiscovered edge budget and the frontier is
// big enough to amortize scanning the pending list. Direction changes
// the within-level discovery order (bottom-up appends in ascending
// vertex ID), which reorders the floating-point dependency sums — the
// summation-order slack the oracle comparisons allow — while sigma
// counts and distances stay exact either way.
const (
	brandesAlpha       = 8
	brandesMinFrontier = 32
)

// betweennessFrom runs the per-source Brandes accumulation from the
// given sources. It is the engine of the per-source oracle
// (PerSourceBetweennessCentrality) that the batched MS-Brandes kernels
// are tested against.
func betweennessFrom(g *graph.Graph, sources []int32, scale float64) []float64 {
	bc := make([]float64, g.NumVertices())
	var scratch brandesScratch
	betweennessInto(g, sources, bc, &scratch)
	// Each unordered pair is counted twice over undirected sources,
	// so halve; scale corrects for source sampling.
	for v := range bc {
		bc[v] *= 0.5 * scale
	}
	return bc
}

// betweennessInto accumulates unscaled Brandes dependencies from the
// given sources into bc, reusing the scratch across sources: after the
// scratch has warmed up to the graph's size, the loop allocates
// nothing. The forward phase is direction-optimizing: dense middle
// levels flip to bottom-up expansion (each undiscovered vertex scans
// its own neighborhood for parents), sparse levels stay on the exact
// top-down queue. Either direction yields the same level structure and
// the same exact sigma counts; order is always level-monotone, which is
// all the back-propagation needs.
func betweennessInto(g *graph.Graph, sources []int32, bc []float64, scratch *brandesScratch) {
	n := g.NumVertices()
	scratch.resize(n)
	sigma, dist, delta := scratch.sigma, scratch.dist, scratch.delta
	totalDeg := int64(2 * g.NumEdges())

	for _, s := range sources {
		for i := 0; i < n; i++ {
			sigma[i], dist[i], delta[i] = 0, -1, 0
		}
		order := scratch.order[:0]
		sigma[s], dist[s] = 1, 0
		order = append(order, s)
		unvisitedDeg := totalDeg - int64(g.Degree(s))
		pending := scratch.pending[:0]
		pendingBuilt := false
		levelStart := 0
		for level := int32(1); levelStart < len(order); level++ {
			levelEnd := len(order)
			frontierDeg := int64(0)
			for _, v := range order[levelStart:levelEnd] {
				frontierDeg += int64(g.Degree(v))
			}
			if levelEnd-levelStart >= brandesMinFrontier && frontierDeg*brandesAlpha > unvisitedDeg {
				// Bottom-up: undiscovered vertices look for parents in
				// the previous level. No early exit — sigma must sum
				// over every parent. The pending list is built once per
				// source and compacted as vertices are discovered.
				if !pendingBuilt {
					for v := int32(0); v < int32(n); v++ {
						if dist[v] < 0 {
							pending = append(pending, v)
						}
					}
					pendingBuilt = true
				}
				live := pending[:0]
				for _, v := range pending {
					if dist[v] >= 0 {
						continue
					}
					found := false
					for _, u := range g.Neighbors(v) {
						if dist[u] == level-1 {
							if !found {
								found = true
								dist[v] = level
								order = append(order, v)
							}
							sigma[v] += sigma[u]
						}
					}
					if !found {
						live = append(live, v)
					}
				}
				pending = live
			} else {
				// Top-down: identical statements (and hence identical
				// discovery order and float results) to the classic
				// rolling-queue loop, chunked by level.
				for _, v := range order[levelStart:levelEnd] {
					for _, u := range g.Neighbors(v) {
						if dist[u] < 0 {
							dist[u] = level
							order = append(order, u)
						}
						if dist[u] == level {
							sigma[u] += sigma[v]
						}
					}
				}
			}
			for _, v := range order[levelEnd:] {
				unvisitedDeg -= int64(g.Degree(v))
			}
			levelStart = levelEnd
		}
		// Back-propagate dependencies in reverse BFS order.
		for i := len(order) - 1; i > 0; i-- {
			w := order[i]
			for _, v := range g.Neighbors(w) {
				if dist[v] == dist[w]-1 {
					delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
				}
			}
			bc[w] += delta[w]
		}
		scratch.order = order
	}
}

// PerSourceEdgeBetweennessCentrality is the per-source edge
// betweenness oracle: one serial Brandes pass per source with
// dependencies attributed to the edge traversed during
// back-propagation, O(|V|·|E|) total. The batched
// EdgeBetweennessCentrality is tested against it.
func PerSourceEdgeBetweennessCentrality(g *graph.Graph) []float64 {
	n := g.NumVertices()
	ebc := make([]float64, g.NumEdges())
	sigma := make([]float64, n)
	dist := make([]int32, n)
	delta := make([]float64, n)
	order := make([]int32, 0, n)

	for s := int32(0); s < int32(n); s++ {
		for i := 0; i < n; i++ {
			sigma[i], dist[i], delta[i] = 0, -1, 0
		}
		order = order[:0]
		sigma[s], dist[s] = 1, 0
		order = append(order, s)
		for head := 0; head < len(order); head++ {
			v := order[head]
			for _, u := range g.Neighbors(v) {
				if dist[u] < 0 {
					dist[u] = dist[v] + 1
					order = append(order, u)
				}
				if dist[u] == dist[v]+1 {
					sigma[u] += sigma[v]
				}
			}
		}
		for i := len(order) - 1; i > 0; i-- {
			w := order[i]
			nbrs := g.Neighbors(w)
			eids := g.IncidentEdges(w)
			for j, v := range nbrs {
				if dist[v] == dist[w]-1 {
					c := sigma[v] / sigma[w] * (1 + delta[w])
					delta[v] += c
					ebc[eids[j]] += c
				}
			}
		}
	}
	// Every unordered pair contributes from both endpoints' sources.
	for e := range ebc {
		ebc[e] *= 0.5
	}
	return ebc
}
