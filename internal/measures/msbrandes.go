package measures

import "repro/internal/graph"

// The betweenness kernels ride the batched MS-Brandes engine of
// internal/graph: sources are grouped into word-wide batches, each
// batch advances 64 Brandes passes at once, and every batch adds its
// unscaled dependencies into an accumulator vector.
//
// Merge contract. Floating-point dependency sums are not associative,
// so the reduction shape — not just the set of batches — decides the
// final bits. Batches are consecutive 64-source chunks of the
// component order (componentOrder, distance.go), which depends on the
// graph and the source set alone. To make every betweenness field
// independent of the worker count (the property the MS-BFS kernels
// get for free from their disjoint outputs), batches are assigned to a
// fixed number of accumulation stripes determined only by the batch
// count: stripe j owns batches j, j+S, j+2S, … in ascending order, and
// the stripe vectors are merged in ascending stripe order. Workers
// claim whole stripes, so scheduling moves stripes between workers
// without ever reordering a single addition: the vertex, edge, and
// sampled fields are bitwise identical for any worker count, one
// included, and hence for any GOMAXPROCS. Which sources share a batch
// does decide the bits, so a change to the order is a one-time field
// change within the per-source oracle's tolerance, re-pinned by
// TestBatchedFieldGolden.

// brandesStripeCount is the fixed accumulation-stripe count of the
// merge contract: enough stripes to feed every realistic core count,
// few enough that the stripe vectors stay a minor cost (S·|V| floats).
const brandesStripeCount = 64

// msBrandesFields accumulates Brandes dependencies from the given
// sources on the batched engine and returns the unscaled vertex field
// (when wantBC) and edge field (when wantEBC). labels and sources come
// from componentOrder: sources is its order or a subsequence of it.
// Callers halve for the undirected convention and apply any sampling
// scale. Results are identical for any worker count; see the merge
// contract above.
func msBrandesFields(g *graph.Graph, labels, sources []int32, wantBC, wantEBC bool, workers int) (bc, ebc []float64) {
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
				batch := sources[b*graph.MSBFSBatch : min((b+1)*graph.MSBFSBatch, len(sources))]
				scratch.AccumulateBatch(g, labels, batch, sb, se)
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

// msBrandesBetweenness is the shared exact-betweenness body: every
// non-isolated source in component order, batched engine, halved for
// the undirected convention.
func msBrandesBetweenness(g *graph.Graph, workers int) []float64 {
	labels, order := componentOrder(g)
	bc, _ := msBrandesFields(g, labels, order, true, false, workers)
	for v := range bc {
		bc[v] *= 0.5
	}
	return bc
}

// approxBetweenness is the shared sampled-pivot body; see
// ApproxBetweennessCentrality for the estimator. The drawn pivots run
// in component order, isolated ones skipped, while the scale stays
// n/samples over every drawn pivot. With no pivots there are no
// dependencies, so samples <= 0 yields the all-zero field.
func approxBetweenness(g *graph.Graph, samples int, seed int64, workers int) []float64 {
	n := g.NumVertices()
	if samples <= 0 {
		return make([]float64, n)
	}
	if samples >= n {
		return msBrandesBetweenness(g, workers)
	}
	pivot := make([]bool, n)
	for _, v := range sampleSources(n, samples, seed) {
		pivot[v] = true
	}
	labels, order := componentOrder(g)
	sources := order[:0]
	for _, v := range order {
		if pivot[v] {
			sources = append(sources, v)
		}
	}
	bc, _ := msBrandesFields(g, labels, sources, true, false, workers)
	scale := 0.5 * float64(n) / float64(samples)
	for v := range bc {
		bc[v] *= scale
	}
	return bc
}

// msBrandesEdgeBetweenness is the shared edge-betweenness body.
func msBrandesEdgeBetweenness(g *graph.Graph, workers int) []float64 {
	labels, order := componentOrder(g)
	_, ebc := msBrandesFields(g, labels, order, false, true, workers)
	for e := range ebc {
		ebc[e] *= 0.5
	}
	return ebc
}
