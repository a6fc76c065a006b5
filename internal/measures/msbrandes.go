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
//
// Distance folds. A pass that also wants distance fields hands each
// batch a per-worker distAccum as AccumulateBatch's level visitor: the
// forward phase reports the same per-level counts MS-BFS would, and
// each source's folds land in its own output slots. Those outputs are
// disjoint, so they take no part in the stripe merge and need no
// locks, and each equals its MS-BFS fold bitwise (see distance.go).

// brandesStripeCount is the fixed accumulation-stripe count of the
// merge contract: enough stripes to feed every realistic core count,
// few enough that the stripe vectors stay a minor cost (S·|V| floats).
const brandesStripeCount = 64

// brandesMeasures maps each registered Brandes measure to its pivot
// count on an n-vertex graph, where a count of n or more means exact
// betweenness: "betweenness" is exact up to ExactBetweennessLimit and
// sampled beyond, "betweenness-sampled" always draws
// betweennessSamples pivots. The registry and the shared pass both
// read it, and brandesSources turns a count into sources, so the
// exact-vs-sampled policy lives in these two places alone.
var brandesMeasures = map[string]func(n int) int{
	"betweenness": func(n int) int {
		if n > ExactBetweennessLimit {
			return betweennessSamples
		}
		return n
	},
	"betweenness-sampled": func(int) int { return betweennessSamples },
}

// brandesSources picks the Brandes sources of a betweenness field
// from `samples` seeded pivots, given componentOrder's order over an
// n-vertex graph. samples >= n is exact: every non-isolated vertex is
// a source. Otherwise the sources are the drawn pivots that are not
// isolated, in component order, and the scale stays n/samples over
// every drawn pivot; samples <= 0 draws none. rest is the order minus
// the sources, and scale is the factor the accumulated dependencies
// take, the undirected 0.5 included.
func brandesSources(n int, order []int32, samples int, seed int64) (sources, rest []int32, scale float64) {
	switch {
	case samples <= 0:
		return nil, order, 0
	case samples >= n:
		return order, nil, 0.5
	}
	pivot := make([]bool, n)
	for _, v := range sampleSources(n, samples, seed) {
		pivot[v] = true
	}
	k := 0
	for _, v := range order {
		if pivot[v] {
			k++
		}
	}
	// One allocation: the sources, then the rest.
	buf := make([]int32, len(order))
	sources, rest = buf[:0:k], buf[k:k]
	for _, v := range order {
		if pivot[v] {
			sources = append(sources, v)
		} else {
			rest = append(rest, v)
		}
	}
	return sources, rest, 0.5 * float64(n) / float64(samples)
}

// brandesFields is the body of every vertex-betweenness kernel and of
// the shared pass: the betweenness field of `samples` seeded pivots
// (see brandesSources), plus the distance fields sel selects. The
// distance fields of the Brandes sources are folded from the level
// counts of the MS-Brandes forward phase, and MS-BFS runs only from
// the rest of the component order, so no source is traversed twice.
// With exact betweenness every non-isolated vertex is a Brandes
// source and MS-BFS runs no batch. Every field is bitwise identical to
// the field its standalone kernel computes, for any worker count.
func brandesFields(g *graph.Graph, samples int, seed int64, sel distSel, workers int) (bc []float64, dist distFields) {
	n := g.NumVertices()
	dist = newDistFields(sel, n)
	labels, order := componentOrder(g)
	sources, rest, scale := brandesSources(n, order, samples, seed)
	bc, _ = msBrandesFields(g, labels, sources, true, false, dist, workers)
	for v := range bc {
		bc[v] *= scale
	}
	if sel.any() {
		msbfsSweep(g, labels, rest, dist, workers)
	}
	return bc, dist
}

// msBrandesFields accumulates Brandes dependencies from the given
// sources on the batched engine and returns the unscaled vertex field
// (when wantBC) and edge field (when wantEBC). labels and sources come
// from componentOrder: sources is its order or a subsequence of it.
// Callers halve for the undirected convention and apply any sampling
// scale. The distance fields dist carries receive the folds of every
// source's forward-phase level counts; sources are distinct, so each
// writes only its own slots. Results are identical for any worker
// count; see the merge contract above.
func msBrandesFields(g *graph.Graph, labels, sources []int32, wantBC, wantEBC bool, dist distFields, workers int) (bc, ebc []float64) {
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
	sel := dist.sel()
	run := func(w int) {
		var scratch graph.MSBrandesScratch
		var acc *distAccum
		var visit func(int32, *[graph.MSBFSBatch]int32)
		if sel.any() {
			acc = &distAccum{sel: sel}
			visit = acc.visit
		}
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
				if acc != nil {
					acc.reset()
				}
				scratch.AccumulateBatch(g, labels, batch, sb, se, visit)
				if acc != nil {
					for i, src := range batch {
						acc.store(dist, i, src, n)
					}
				}
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

// approxBetweenness is the vertex-betweenness body: `samples` seeded
// pivots (samples >= n is exact), see ApproxBetweennessCentrality for
// the estimator.
func approxBetweenness(g *graph.Graph, samples int, seed int64, workers int) []float64 {
	bc, _ := brandesFields(g, samples, seed, distSel{}, workers)
	return bc
}

// msBrandesEdgeBetweenness is the shared edge-betweenness body.
func msBrandesEdgeBetweenness(g *graph.Graph, workers int) []float64 {
	labels, order := componentOrder(g)
	_, ebc := msBrandesFields(g, labels, order, false, true, distFields{}, workers)
	for e := range ebc {
		ebc[e] *= 0.5
	}
	return ebc
}
