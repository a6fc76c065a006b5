package measures

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/par"
)

// The distance-based centralities (closeness, harmonic, eccentricity,
// k-hop size) ride the batched MS-BFS engine of internal/graph:
// sources are grouped into word-wide batches, each batch advances 64
// traversals at once, and the per-level counts the engine reports are
// folded directly into scores.
//
// Fold semantics. For each source s, the engine reports c_L = number of
// vertices first reached at depth L, for L = 1, 2, … in order. The
// folds are
//
//	closeness:    reach = Σ c_L, sum = Σ L·c_L (exact int64 arithmetic),
//	              score = reach² / ((n-1)·sum), 0 when sum = 0
//	harmonic:     Σ_L float64(c_L)/float64(L), accumulated in ascending L
//	eccentricity: max L with c_L > 0 (0 for isolated vertices) — the
//	              greatest BFS depth within the source's component
//	khop:         Σ_{L ≤ KHopRadius} c_L (exact int64) — the number of
//	              other vertices within KHopRadius hops
//
// Closeness is bit-identical to a per-source BFS fold: its
// intermediate sums are integers, exact in either accumulation order
// (while Σ distances < 2^53, astronomically beyond any graph here);
// the eccentricity and khop folds are set-determined integers too.
// Harmonic's level-count fold replaces a per-source vertex-order
// Σ 1/d_v; the two agree up to floating-point summation order (last
// ulp). Every kernel in this package — single-measure and shared-pass
// — uses the level-count fold, so they agree with each other bitwise
// for any worker count: each source's fold depends on its own BFS
// alone, so neither the batch a source lands in nor the schedule can
// change a bit.
//
// Batch order. Sources are batched in component order (see
// componentOrder): batches stay inside one component where they can,
// and the engine starts each batch with every pair in different
// components already seen. Isolated vertices are never traversed;
// every fold scores them 0.

// KHopRadius is the hop radius of the "khop" neighborhood-size
// measure: |{u : 1 ≤ d(v,u) ≤ KHopRadius}| per vertex. Three hops is
// the smallest radius that separates local density (degree, triangles)
// from mesoscale reach on the small-world graphs of the paper's
// Table II, while staying cheap under the batched engine (the fold
// stops counting, not traversing, past the radius).
const KHopRadius = 3

// distSel selects which distance-based fields a shared MS-BFS pass
// folds; distFields carries the results (nil for unselected fields).
type distSel struct {
	close, harm, ecc, khop bool
}

type distFields struct {
	clo, har, ecc, khop []float64
}

// distAccum folds one batch's level counts. It lives on the worker, is
// reset per batch, and its visit method is bound once per worker so the
// batch loop stays allocation-free.
type distAccum struct {
	sel     distSel
	reach   [graph.MSBFSBatch]int64
	sumDist [graph.MSBFSBatch]int64
	harm    [graph.MSBFSBatch]float64
	ecc     [graph.MSBFSBatch]int32
	khop    [graph.MSBFSBatch]int64
}

func (a *distAccum) reset() {
	if a.sel.close {
		clear(a.reach[:])
		clear(a.sumDist[:])
	}
	if a.sel.harm {
		clear(a.harm[:])
	}
	if a.sel.ecc {
		clear(a.ecc[:])
	}
	if a.sel.khop {
		clear(a.khop[:])
	}
}

func (a *distAccum) visit(level int32, counts *[graph.MSBFSBatch]int32) {
	khop := a.sel.khop && level <= KHopRadius
	for s, c := range counts {
		if c == 0 {
			continue
		}
		if a.sel.close {
			a.reach[s] += int64(c)
			a.sumDist[s] += int64(level) * int64(c)
		}
		if a.sel.harm {
			// The literal division (not a hoisted 1/L multiply) keeps
			// the fold deterministic: c/L and c·(1/L) round differently
			// when 1/L is inexact — see the fold contract above.
			a.harm[s] += float64(c) / float64(level)
		}
		if a.sel.ecc {
			// Levels arrive in ascending order, so the last level with
			// a nonzero count is the eccentricity.
			a.ecc[s] = level
		}
		if khop {
			a.khop[s] += int64(c)
		}
	}
}

// closenessScore mirrors the per-source closeness expression exactly
// (reach² / ((n-1)·sum)): same operations, same order, with the exact
// integer sums substituted for float-accumulated ones.
func closenessScore(reach, sumDist int64, n int) float64 {
	if sumDist == 0 {
		return 0
	}
	r := float64(reach)
	return r * r / (float64(n-1) * float64(sumDist))
}

// msbfsFields computes the selected distance-based fields in one
// shared MS-BFS sweep over all vertices. Batches (64 consecutive
// sources of the component order each) are strided across workers;
// each worker holds one pooled scratch and one accumulator, and each
// source writes only its own output slot, so the sweep needs no locks
// and performs O(1) allocations per worker once warm. Results are
// identical for any worker count; the exported kernels pass
// par.Workers(|V|).
func msbfsFields(g *graph.Graph, sel distSel, workers int) distFields {
	n := g.NumVertices()
	// Single-assignment locals, deliberately: the run closure captures
	// these, and escape analysis is flow-insensitive — a variable
	// assigned anywhere after declaration is captured by reference,
	// costing one heap cell per field. Initializing at declaration
	// keeps the capture by value (the alloc_test budgets pin this).
	out := distFields{
		clo:  makeIf(sel.close, n),
		har:  makeIf(sel.harm, n),
		ecc:  makeIf(sel.ecc, n),
		khop: makeIf(sel.khop, n),
	}
	if n == 0 {
		return out
	}
	labels, order := componentOrder(g)
	numBatches := (len(order) + graph.MSBFSBatch - 1) / graph.MSBFSBatch
	workers = max(1, min(workers, numBatches))
	run := func(w int) {
		var scratch graph.MSBFSScratch
		acc := &distAccum{sel: sel}
		visit := acc.visit
		for b := w; b < numBatches; b += workers {
			batch := order[b*graph.MSBFSBatch : min((b+1)*graph.MSBFSBatch, len(order))]
			acc.reset()
			scratch.RunBatch(g, labels, batch, visit)
			for i, src := range batch {
				if sel.close {
					out.clo[src] = closenessScore(acc.reach[i], acc.sumDist[i], n)
				}
				if sel.harm {
					out.har[src] = acc.harm[i]
				}
				if sel.ecc {
					out.ecc[src] = float64(acc.ecc[i])
				}
				if sel.khop {
					out.khop[src] = float64(acc.khop[i])
				}
			}
		}
	}
	runWorkers(workers, run)
	return out
}

// componentOrder labels g's connected components and returns the
// labels plus every non-isolated vertex sorted by (component label,
// vertex ID), by one counting pass over the labels. Consecutive
// 64-source chunks of that order are the batches of both engines:
// sources that share a component share a batch, so most of a batch's
// (source, vertex) pairs are reachable, and the engines' seeding
// (graph.MSBFSScratch.RunBatch) marks the rest seen before the first
// level. An isolated vertex reaches nothing, so every fold scores it 0
// with no traversal. The order depends on the graph alone, never on
// the worker count.
func componentOrder(g *graph.Graph) (labels, order []int32) {
	labels, count := graph.ConnectedComponents(g)
	n := len(labels)
	// One allocation: the order, then count+1 component offsets.
	buf := make([]int32, n+count+1)
	next := buf[n:]
	for v, c := range labels {
		if g.Degree(int32(v)) > 0 {
			next[c+1]++
		}
	}
	for c := 1; c <= count; c++ {
		next[c] += next[c-1]
	}
	order = buf[:next[count]:next[count]]
	for v, c := range labels {
		if g.Degree(int32(v)) > 0 {
			order[next[c]] = int32(v)
			next[c]++
		}
	}
	return labels, order
}

// runWorkers calls run(w) for every w in [0, workers): inline for one
// worker, otherwise on one goroutine each, returning when all are done.
func runWorkers(workers int, run func(w int)) {
	if workers == 1 {
		run(0)
		return
	}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	wg.Wait()
}

// makeIf allocates an n-value field only when it is wanted.
func makeIf(want bool, n int) []float64 {
	if !want {
		return nil
	}
	return make([]float64, n)
}

// distanceMeasures is the single source of truth for which registry
// names are distance-based: DistanceBased and SharedDistanceFields
// both consult it, so adding a measure here lights up the shared-pass
// path everywhere at once.
var distanceMeasures = map[string]distSel{
	"closeness":    {close: true},
	"harmonic":     {harm: true},
	"eccentricity": {ecc: true},
	"khop":         {khop: true},
}

// DistanceBased reports whether the named registered measure is
// computed from BFS distances and can therefore join a shared MS-BFS
// pass via SharedDistanceFields.
func DistanceBased(name string) bool {
	_, ok := distanceMeasures[name]
	return ok
}

// SharedDistanceFields computes several distance-based measures from
// one shared MS-BFS traversal: each batch of 64 BFS sources is folded
// into every requested field simultaneously, so asking for closeness
// and harmonic together costs one traversal, not two. It returns
// ok=false (and does nothing) unless every name is DistanceBased; each
// returned field is bit-identical to the field the registry computes
// for that measure alone.
func SharedDistanceFields(g *graph.Graph, names []string) (map[string][]float64, bool) {
	var sel distSel
	for _, name := range names {
		s, ok := distanceMeasures[name]
		if !ok {
			return nil, false
		}
		sel.close = sel.close || s.close
		sel.harm = sel.harm || s.harm
		sel.ecc = sel.ecc || s.ecc
		sel.khop = sel.khop || s.khop
	}
	f := msbfsFields(g, sel, par.Workers(g.NumVertices()))
	out := make(map[string][]float64, 4)
	if sel.close {
		out["closeness"] = f.clo
	}
	if sel.harm {
		out["harmonic"] = f.har
	}
	if sel.ecc {
		out["eccentricity"] = f.ecc
	}
	if sel.khop {
		out["khop"] = f.khop
	}
	return out, true
}

// Eccentricity computes, for every vertex, the greatest BFS distance
// to any vertex of its own component (isolated vertices score 0): the
// ROADMAP's "MS-BFS for more workloads" eccentricity item. It rides
// the same batched traversal as closeness/harmonic — the fold just
// keeps the last level with a nonzero count — so it costs one MS-BFS
// sweep, not |V| BFS runs. As a height measure its peaks are the
// periphery (graph-center analysis turned upside down); as a color
// measure over a centrality terrain it highlights eccentric cores.
func Eccentricity(g *graph.Graph) []float64 {
	return msbfsFields(g, distSel{ecc: true}, par.Workers(g.NumVertices())).ecc
}

// KHopSize computes, for every vertex, the number of other vertices
// within KHopRadius hops — a neighborhood-scale field between degree
// (radius 1) and closeness (unbounded radius) that the batched engine
// makes as cheap as either: the fold truncates the level sum, the
// traversal is the same shared sweep. High khop over low degree flags
// vertices adjacent to hubs; as a terrain it surfaces mesoscale
// density that k-core peeling misses.
func KHopSize(g *graph.Graph) []float64 {
	return msbfsFields(g, distSel{khop: true}, par.Workers(g.NumVertices())).khop
}
