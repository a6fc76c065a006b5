package scalarfield

// Analyzer is the pooled front door for repeated analyses: it keeps
// the transient state of the measure→sweep→tree hot path — the sweep
// order, counting-sort buckets, union-find state, and raw tree arrays
// — alive between Analyze calls, so a long-lived caller (an HTTP
// server answering per-request analyses, an experiment sweep) stops
// re-allocating O(|V|) scratch per run. The one-shot package-level
// Analyze routes through a fresh Analyzer; holding one amortizes the
// same buffers across calls.
//
// Every result an Analyzer returns owns its storage outright — only
// intermediate state lives in the pool — so Terrains from successive
// calls remain valid indefinitely. An Analyzer is not safe for
// concurrent use; hold one per goroutine, or serialize access as
// cmd/serve does.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/measures"
)

// Analyzer runs the Analyze pipeline with pooled sweep state. The zero
// value is ready to use.
type Analyzer struct {
	pool core.TreeBuilder
}

// NewAnalyzer returns an Analyzer with an empty pool. The first
// Analyze call sizes the buffers; later calls reuse them.
func NewAnalyzer() *Analyzer { return &Analyzer{} }

// Analysis bundles every product of one pipeline run: the terrain plus
// the raw per-item measure fields it was built from. The fields are
// what downstream multi-scalar analyses (LCI/GCI, outlier scoring) and
// the snapshot query layer consume; returning them here means one
// pooled run yields everything, instead of re-evaluating the measure
// to recover values the pipeline already computed.
type Analysis struct {
	// Terrain is the laid-out, colored terrain.
	Terrain *Terrain
	// Values is the raw (pre-simplification) height field, one value
	// per vertex or per edge according to Edge. Owned by the caller.
	Values []float64
	// ColorValues is the raw color field when AnalyzeOptions.ColorBy
	// was set; nil otherwise.
	ColorValues []float64
	// Edge reports whether the fields are edge-based.
	Edge bool
}

// Analyze is the pooled equivalent of the package-level Analyze: it
// evaluates the registered measure, builds the scalar field and its
// super scalar tree through the builder pool, lays the tree out, and
// colors it. Output is identical to the package-level Analyze.
func (a *Analyzer) Analyze(g *Graph, measure string, opts AnalyzeOptions) (*Terrain, error) {
	res, err := a.AnalyzeAll(g, measure, opts)
	if err != nil {
		return nil, err
	}
	return res.Terrain, nil
}

// AnalyzeAll is Analyze keeping the intermediate products: it returns
// the terrain together with the raw height (and color) fields the
// measure registry produced. The fields are freshly computed slices
// owned by the result — nothing aliases the analyzer's pooled state —
// so an immutable snapshot can hold them indefinitely.
func (a *Analyzer) AnalyzeAll(g *Graph, measure string, opts AnalyzeOptions) (*Analysis, error) {
	// When the height and color measures join one shared pass — two
	// distance-based measures (closeness, harmonic, eccentricity,
	// khop), or one of them with a betweenness measure, in either
	// role — one traversal per source produces both fields. The level
	// counts the distance folds consume come from either engine: the
	// MS-Brandes forward phase for the betweenness sources, MS-BFS for
	// the rest. The fields are bit-identical to the ones the registry
	// computes separately, so snapshots keyed on either path agree.
	var colorValues []float64
	var values []float64
	var edge bool
	if opts.ColorBy != "" && opts.ColorBy != measure && measures.SharedPass(measure, opts.ColorBy) {
		fields, _ := measures.SharedDistanceFields(g, []string{measure, opts.ColorBy})
		values, colorValues = fields[measure], fields[opts.ColorBy]
	}
	if values == nil {
		// Not a shareable pairing: the usual one-measure-at-a-time
		// registry path.
		var err error
		values, edge, err = measureValues(g, measure)
		if err != nil {
			return nil, err
		}
	}
	topts := TerrainOptions{SimplifyBins: opts.SimplifyBins, Layout: opts.Layout}
	var t *Terrain
	var err error
	if edge {
		t, err = a.edgeTerrain(g, values, topts)
	} else {
		t, err = a.vertexTerrain(g, values, topts)
	}
	if err != nil {
		return nil, err
	}
	res := &Analysis{Terrain: t, Values: values, Edge: edge}
	if opts.ColorBy != "" {
		cv := colorValues
		if cv == nil && opts.ColorBy == measure {
			// Coloring by the height measure itself: the field is
			// already computed. Snapshots treat both slices as
			// immutable, so sharing the storage is safe.
			cv = values
		}
		if cv == nil {
			var cEdge bool
			cv, cEdge, err = measureValues(g, opts.ColorBy)
			if err != nil {
				return nil, err
			}
			if cEdge != edge {
				return nil, fmt.Errorf("scalarfield: color measure %q and height measure %q disagree on vertex/edge basis",
					opts.ColorBy, measure)
			}
		}
		if err := t.ColorByValues(cv); err != nil {
			return nil, err
		}
		res.ColorValues = cv
	}
	return res, nil
}

// vertexTerrain builds a vertex terrain with the tree built on the pool;
// NewVertexTerrain runs it on a zero Analyzer.
func (a *Analyzer) vertexTerrain(g *Graph, values []float64, o TerrainOptions) (*Terrain, error) {
	f, err := core.NewVertexField(g, values)
	if err != nil {
		return nil, err
	}
	if o.SimplifyBins > 0 {
		f = core.SimplifyVertexField(f, o.SimplifyBins)
	}
	return newTerrain(a.pool.VertexSuperTree(f), o), nil
}

// edgeTerrain builds an edge terrain with the tree built on the pool;
// NewEdgeTerrain runs it on a zero Analyzer.
func (a *Analyzer) edgeTerrain(g *Graph, values []float64, o TerrainOptions) (*Terrain, error) {
	f, err := core.NewEdgeField(g, values)
	if err != nil {
		return nil, err
	}
	if o.SimplifyBins > 0 {
		f = core.SimplifyEdgeField(f, o.SimplifyBins)
	}
	return newTerrain(a.pool.EdgeSuperTree(f), o), nil
}
