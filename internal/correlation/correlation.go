// Package correlation implements the paper's multi-scalar analysis
// (Section II-F): the Local Correlation Index (LCI) of two scalar
// fields over each vertex's k-hop neighborhood, the Global Correlation
// Index (GCI) averaging LCI over the graph, and the outlier score
// -LCI(v) used in Section III-C to surface neighborhoods whose local
// correlation contradicts the global trend.
package correlation

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/graph"
	"repro/internal/par"
)

// Options configures LCI computation.
type Options struct {
	// Hops is the neighborhood radius; the paper fixes this to 1 for
	// all experiments. Values below 1 are treated as 1.
	Hops int
}

// LCI computes the Local Correlation Index of scalar fields si and sj
// at every vertex: the Pearson correlation of the two fields restricted
// to the vertex's k-hop neighborhood N(v) (including v itself, matching
// the paper's averaging over u ∈ N(v)).
//
// Degenerate neighborhoods — fewer than two vertices, or zero variance
// in either field — yield LCI 0, a neutral value that neither inflates
// nor deflates GCI.
//
// Vertices are strided across par.Workers(|V|) workers. Each vertex's
// LCI depends only on its own neighborhood, so the result is
// bit-identical for any worker count.
func LCI(g *graph.Graph, si, sj []float64, opts Options) ([]float64, error) {
	return lci(g, si, sj, opts, par.Workers(g.NumVertices()))
}

// lci is LCI with an explicit worker count.
func lci(g *graph.Graph, si, sj []float64, opts Options, workers int) ([]float64, error) {
	n := g.NumVertices()
	if len(si) != n || len(sj) != n {
		return nil, fmt.Errorf("correlation: field lengths %d, %d for %d vertices", len(si), len(sj), n)
	}
	hops := opts.Hops
	if hops < 1 {
		hops = 1
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	out := make([]float64, n)
	run := func(w int) {
		var hood []int32
		for v := w; v < n; v += workers {
			if hops == 1 {
				hood = append(append(hood[:0], int32(v)), g.Neighbors(int32(v))...)
			} else {
				hood = graph.KHopNeighborhood(g, int32(v), hops)
			}
			out[v] = pearsonOver(hood, si, sj)
		}
	}
	if workers == 1 {
		run(0)
		return out, nil
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			run(w)
		}(w)
	}
	wg.Wait()
	return out, nil
}

// pearsonOver computes the Pearson correlation of si and sj over the
// given vertex set, returning 0 when undefined.
//
// Non-finite inputs (NaN from a 0/0 measure, ±Inf from overflow) make
// the correlation itself undefined, and the covII == 0 variance guard
// does not catch them — NaN propagates through the sums and compares
// false against 0, so a single poisoned vertex would otherwise drive
// the neighborhood's LCI, and through it the graph-wide GCI, to NaN.
// Such neighborhoods are treated like the other degenerate cases and
// score 0, the neutral value that neither inflates nor deflates GCI.
func pearsonOver(hood []int32, si, sj []float64) float64 {
	if len(hood) < 2 {
		return 0
	}
	inv := 1 / float64(len(hood))
	var mi, mj float64
	for _, u := range hood {
		a, b := si[u], sj[u]
		if !isFinite(a) || !isFinite(b) {
			return 0
		}
		mi += a
		mj += b
	}
	mi *= inv
	mj *= inv
	var covIJ, covII, covJJ float64
	for _, u := range hood {
		di, dj := si[u]-mi, sj[u]-mj
		covIJ += di * dj
		covII += di * di
		covJJ += dj * dj
	}
	if covII == 0 || covJJ == 0 {
		return 0
	}
	r := covIJ / (math.Sqrt(covII) * math.Sqrt(covJJ))
	if math.IsNaN(r) { // finite-but-huge values can overflow the sums to Inf/Inf
		return 0
	}
	return r
}

// isFinite reports whether x is neither NaN nor ±Inf.
func isFinite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// GCI computes the Global Correlation Index: the mean LCI over all
// vertices, the paper's summary of how two fields co-vary graph-wide.
// Bit-identical for any worker count, like LCI.
func GCI(g *graph.Graph, si, sj []float64, opts Options) (float64, error) {
	scores, err := LCI(g, si, sj, opts)
	if err != nil {
		return 0, err
	}
	if len(scores) == 0 {
		return 0, nil
	}
	var sum float64
	for _, v := range scores {
		sum += v
	}
	return sum / float64(len(scores)), nil
}

// OutlierScores returns -LCI(v) for every vertex, the paper's outlier
// score: vertices whose local correlation opposes a positive global
// trend score high, surfacing bridge-like nodes (Section III-C).
func OutlierScores(lci []float64) []float64 {
	out := make([]float64, len(lci))
	for i, v := range lci {
		out[i] = -v
	}
	return out
}

// EdgeLCI adapts the Local Correlation Index to edge-based scalar
// fields, as the paper notes the method "can easily be adapted": the
// neighborhood of an edge e is e together with all edges sharing an
// endpoint with it.
func EdgeLCI(g *graph.Graph, si, sj []float64) ([]float64, error) {
	m := g.NumEdges()
	if len(si) != m || len(sj) != m {
		return nil, fmt.Errorf("correlation: field lengths %d, %d for %d edges", len(si), len(sj), m)
	}
	out := make([]float64, m)
	var hood []int32
	for e := int32(0); e < int32(m); e++ {
		ed := g.Edge(e)
		hood = hood[:0]
		hood = append(hood, e)
		for _, x := range g.IncidentEdges(ed.U) {
			if x != e {
				hood = append(hood, x)
			}
		}
		for _, x := range g.IncidentEdges(ed.V) {
			if x != e {
				hood = append(hood, x)
			}
		}
		out[e] = pearsonOver(hood, si, sj)
	}
	return out, nil
}
