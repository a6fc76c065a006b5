package measures

import "repro/internal/graph"

// The betweenness kernels ride the batched MS-Brandes engine of
// internal/graph: sources are grouped into word-wide batches, each
// batch advances 64 Brandes passes at once, and every batch adds its
// unscaled dependencies into an accumulator vector.
//
// Merge contract. Floating-point dependency sums are not associative,
// so the reduction shape — not just the set of batches — decides the
// final bits. To make every betweenness field independent of the
// worker count (the property the MS-BFS kernels get for free from
// their disjoint outputs), batches are assigned to a fixed number of
// accumulation stripes determined only by the input size: stripe j
// owns batches j, j+S, j+2S, … in ascending order, and the stripe
// vectors are merged in ascending stripe order. Workers claim whole
// stripes, so scheduling moves stripes between workers without ever
// reordering a single addition: the vertex, edge, and sampled fields
// are bitwise identical for any worker count, one included, and hence
// for any GOMAXPROCS.

// brandesStripeCount is the fixed accumulation-stripe count of the
// merge contract: enough stripes to feed every realistic core count,
// few enough that the stripe vectors stay a minor cost (S·|V| floats).
const brandesStripeCount = 64

// msBrandesFields accumulates Brandes dependencies from the given
// sources on the batched engine and returns the unscaled vertex field
// (when wantBC) and edge field (when wantEBC). Callers halve for the
// undirected convention and apply any sampling scale. Results are
// identical for any worker count; see the merge contract above.
func msBrandesFields(g *graph.Graph, sources []int32, wantBC, wantEBC bool, workers int) (bc, ebc []float64) {
	n := g.NumVertices()
	m := g.NumEdges()
	if wantBC {
		bc = make([]float64, n)
	}
	if wantEBC {
		ebc = make([]float64, m)
	}
	numBatches := (len(sources) + graph.MSBFSBatch - 1) / graph.MSBFSBatch
	stripes := min(brandesStripeCount, numBatches)
	if stripes == 0 {
		return bc, ebc
	}
	workers = max(1, min(workers, stripes))
	// Stripe-major accumulators: one backing allocation per field, with
	// stripe j's vector at rows[j*n:(j+1)*n].
	var bcStripes, ebcStripes []float64
	if wantBC {
		bcStripes = make([]float64, stripes*n)
	}
	if wantEBC {
		ebcStripes = make([]float64, stripes*m)
	}
	run := func(w int) {
		var scratch graph.MSBrandesScratch
		for j := w; j < stripes; j += workers {
			var sb, se []float64
			if wantBC {
				sb = bcStripes[j*n : (j+1)*n]
			}
			if wantEBC {
				se = ebcStripes[j*m : (j+1)*m]
			}
			for b := j; b < numBatches; b += stripes {
				lo := b * graph.MSBFSBatch
				hi := lo + graph.MSBFSBatch
				if hi > len(sources) {
					hi = len(sources)
				}
				scratch.AccumulateBatch(g, sources[lo:hi], sb, se)
			}
		}
	}
	runWorkers(workers, run)
	// Canonical merge: ascending stripe order, fixed by n alone.
	for j := 0; j < stripes; j++ {
		if wantBC {
			row := bcStripes[j*n : (j+1)*n]
			for v := range bc {
				bc[v] += row[v]
			}
		}
		if wantEBC {
			row := ebcStripes[j*m : (j+1)*m]
			for e := range ebc {
				ebc[e] += row[e]
			}
		}
	}
	return bc, ebc
}

// allVertexSources returns the full source list {0, …, n-1} of an
// exact betweenness pass.
func allVertexSources(n int) []int32 {
	sources := make([]int32, n)
	for i := range sources {
		sources[i] = int32(i)
	}
	return sources
}

// msBrandesBetweenness is the shared exact-betweenness body: all
// sources, batched engine, halved for the undirected convention.
func msBrandesBetweenness(g *graph.Graph, workers int) []float64 {
	bc, _ := msBrandesFields(g, allVertexSources(g.NumVertices()), true, false, workers)
	for v := range bc {
		bc[v] *= 0.5
	}
	return bc
}

// approxBetweenness is the shared sampled-pivot body; see
// ApproxBetweennessCentrality for the estimator.
func approxBetweenness(g *graph.Graph, samples int, seed int64, workers int) []float64 {
	n := g.NumVertices()
	if samples >= n {
		return msBrandesBetweenness(g, workers)
	}
	bc, _ := msBrandesFields(g, sampleSources(n, samples, seed), true, false, workers)
	scale := 0.5 * float64(n) / float64(samples)
	for v := range bc {
		bc[v] *= scale
	}
	return bc
}

// msBrandesEdgeBetweenness is the shared edge-betweenness body.
func msBrandesEdgeBetweenness(g *graph.Graph, workers int) []float64 {
	_, ebc := msBrandesFields(g, allVertexSources(g.NumVertices()), false, true, workers)
	for e := range ebc {
		ebc[e] *= 0.5
	}
	return ebc
}
