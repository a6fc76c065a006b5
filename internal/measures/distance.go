package measures

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/par"
)

// The distance-based centralities (closeness, harmonic, eccentricity,
// k-hop size) are folds of per-source BFS level counts. Two engines of
// internal/graph report those counts: MS-BFS (RunBatch), and the
// forward phase of MS-Brandes (AccumulateBatch's visitor), which is a
// BFS too. Sources are grouped into word-wide batches, each batch
// advances 64 traversals at once, and the counts are folded directly
// into scores. A pass that also computes betweenness folds the
// distance fields of its Brandes sources from the Brandes traversal and
// runs MS-BFS over the remaining sources only (see brandesFields).
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
// ulp). Both engines report the same counts level for level, in the
// same ascending order, and every kernel in this package — single-
// measure and shared-pass — folds them through the same distAccum, so
// they agree with each other bitwise for any worker count: each
// source's fold depends on its own BFS alone, so neither the engine
// that traverses a source, nor the batch it lands in, nor the schedule
// can change a bit.
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

// distSel selects which distance-based fields a pass folds;
// distFields carries the results (nil for unselected fields).
type distSel struct {
	close, harm, ecc, khop bool
}

func (s distSel) any() bool { return s.close || s.harm || s.ecc || s.khop }

type distFields struct {
	clo, har, ecc, khop []float64
}

// newDistFields allocates the selected n-value fields.
func newDistFields(sel distSel, n int) distFields {
	return distFields{
		clo:  makeIf(sel.close, n),
		har:  makeIf(sel.harm, n),
		ecc:  makeIf(sel.ecc, n),
		khop: makeIf(sel.khop, n),
	}
}

// sel reports which fields f carries.
func (f distFields) sel() distSel {
	return distSel{close: f.clo != nil, harm: f.har != nil, ecc: f.ecc != nil, khop: f.khop != nil}
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

// store writes the folded scores of lane i into src's slots of out,
// the fields of an n-vertex graph.
func (a *distAccum) store(out distFields, i int, src int32, n int) {
	if a.sel.close {
		out.clo[src] = closenessScore(a.reach[i], a.sumDist[i], n)
	}
	if a.sel.harm {
		out.har[src] = a.harm[i]
	}
	if a.sel.ecc {
		out.ecc[src] = float64(a.ecc[i])
	}
	if a.sel.khop {
		out.khop[src] = float64(a.khop[i])
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

// msbfsFields computes the selected distance-based fields of every
// vertex in one MS-BFS sweep over the component order. Results are
// identical for any worker count; the exported kernels pass
// par.Workers(|V|).
func msbfsFields(g *graph.Graph, sel distSel, workers int) distFields {
	out := newDistFields(sel, g.NumVertices())
	if g.NumVertices() > 0 {
		labels, order := componentOrder(g)
		msbfsSweep(g, labels, order, out, workers)
	}
	return out
}

// msbfsSweep folds the fields out carries for the given sources (a
// subsequence of componentOrder's order, labels its labels) on the
// MS-BFS engine. Batches (64 consecutive sources each) are strided
// across workers; each worker holds one pooled scratch and one
// accumulator, and each source writes only its own output slot, so the
// sweep needs no locks and performs O(1) allocations per worker once
// warm. out is never reassigned, so the run closure captures it by
// value, not as a heap cell (the alloc_test budgets pin this).
func msbfsSweep(g *graph.Graph, labels, sources []int32, out distFields, workers int) {
	numBatches := (len(sources) + graph.MSBFSBatch - 1) / graph.MSBFSBatch
	if numBatches == 0 {
		return
	}
	workers = max(1, min(workers, numBatches))
	n := g.NumVertices()
	run := func(w int) {
		var scratch graph.MSBFSScratch
		acc := &distAccum{sel: out.sel()}
		visit := acc.visit
		for b := w; b < numBatches; b += workers {
			batch := sources[b*graph.MSBFSBatch : min((b+1)*graph.MSBFSBatch, len(sources))]
			acc.reset()
			scratch.RunBatch(g, labels, batch, visit)
			for i, src := range batch {
				acc.store(out, i, src, n)
			}
		}
	}
	runWorkers(workers, run)
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
// names are distance-based; with brandesMeasures (msbrandes.go) it
// decides which names SharedPass accepts, so adding a measure here
// lights up the shared-pass path everywhere at once.
var distanceMeasures = map[string]distSel{
	"closeness":    {close: true},
	"harmonic":     {harm: true},
	"eccentricity": {ecc: true},
	"khop":         {khop: true},
}

// sharedPlan resolves the names of one shared pass: the union of the
// distance fields and at most one Brandes measure ("" for none). ok is
// false if a name is neither, or if two names are Brandes measures.
func sharedPlan(names []string) (sel distSel, brandes string, ok bool) {
	for _, name := range names {
		if _, isBrandes := brandesMeasures[name]; isBrandes {
			if brandes != "" {
				return distSel{}, "", false
			}
			brandes = name
			continue
		}
		s, isDist := distanceMeasures[name]
		if !isDist {
			return distSel{}, "", false
		}
		sel.close = sel.close || s.close
		sel.harm = sel.harm || s.harm
		sel.ecc = sel.ecc || s.ecc
		sel.khop = sel.khop || s.khop
	}
	return sel, brandes, true
}

// SharedPass reports whether the named registered measures can be
// computed together by one SharedDistanceFields traversal: any number
// of distance-based measures (closeness, harmonic, eccentricity, khop)
// with at most one Brandes measure (betweenness, betweenness-sampled).
func SharedPass(names ...string) bool {
	_, _, ok := sharedPlan(names)
	return ok
}

// SharedDistanceFields computes several measures from one shared
// traversal per source. Each batch of 64 BFS sources is folded into
// every requested distance field simultaneously, so asking for
// closeness and harmonic together costs one traversal, not two. With a
// Brandes measure in the request, the distance fields of its sources
// come from the MS-Brandes forward phase and MS-BFS runs only from the
// other vertices (see brandesFields). It returns ok=false (and does
// nothing) unless SharedPass accepts names; each returned field is
// bit-identical to the field the registry computes for that measure
// alone.
func SharedDistanceFields(g *graph.Graph, names []string) (map[string][]float64, bool) {
	sel, brandes, ok := sharedPlan(names)
	if !ok {
		return nil, false
	}
	n := g.NumVertices()
	out := make(map[string][]float64, 5)
	var f distFields
	if brandes == "" {
		f = msbfsFields(g, sel, par.Workers(n))
	} else {
		out[brandes], f = brandesFields(g, brandesMeasures[brandes](n), betweennessSeed, sel, par.Workers(n))
	}
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
