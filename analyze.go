package scalarfield

// The registry-driven front door of the pipeline: Analyze runs
// measure → scalar field → scalar tree → terrain by measure name, so
// downstream callers (the HTTP server, the terrain CLI, the experiment
// harness, library users) share one resolution path. Registering a
// measure in internal/measures lights it up everywhere at once.

import (
	"fmt"
	"strings"

	"repro/internal/measures"
	"repro/internal/terrain"
)

// MeasureInfo describes one registered scalar measure.
type MeasureInfo struct {
	// Name is the registry key, e.g. "kcore".
	Name string
	// Edge reports whether the measure assigns scalars to edges
	// (terrain built by Algorithm 3) rather than vertices (Algorithm 1).
	Edge bool
	// Doc is a one-line description.
	Doc string
}

// Measures returns the names of every registered measure, sorted.
func Measures() []string { return measures.Names() }

// MeasureInfos returns descriptors of every registered measure, sorted
// by name.
func MeasureInfos() []MeasureInfo {
	names := measures.Names()
	infos := make([]MeasureInfo, 0, len(names))
	for _, name := range names {
		spec, _ := measures.Lookup(name)
		infos = append(infos, MeasureInfo{Name: name, Edge: spec.Kind == measures.Edge, Doc: spec.Doc})
	}
	return infos
}

// LookupMeasure resolves a registered measure by name.
func LookupMeasure(name string) (MeasureInfo, bool) {
	spec, ok := measures.Lookup(name)
	if !ok {
		return MeasureInfo{}, false
	}
	return MeasureInfo{Name: name, Edge: spec.Kind == measures.Edge, Doc: spec.Doc}, true
}

// RegisterMeasure adds a custom measure to the registry, making it
// available to Analyze, the serve and terrain commands, and the
// experiment harness under the given name. It panics on a duplicate or
// empty name — registration is an init-time affair.
func RegisterMeasure(name string, edge bool, doc string, compute func(*Graph) []float64) {
	kind := measures.Vertex
	if edge {
		kind = measures.Edge
	}
	measures.Register(name, measures.Spec{Kind: kind, Doc: doc, Compute: compute})
}

// MeasureValues evaluates a registered measure by name, reporting
// whether the resulting field is edge-based. Every built-in kernel
// picks its own worker count and returns the same bits for any count.
//
// The parallel argument is ignored. It is kept only so existing
// callers still compile and can be dropped together with them.
func MeasureValues(g *Graph, name string, parallel bool) ([]float64, bool, error) {
	return measureValues(g, name)
}

func measureValues(g *Graph, name string) ([]float64, bool, error) {
	spec, ok := measures.Lookup(name)
	if !ok {
		return nil, false, unknownMeasure(name)
	}
	return spec.Compute(g), spec.Kind == measures.Edge, nil
}

// AnalyzeOptions configures Analyze.
type AnalyzeOptions struct {
	// SimplifyBins > 0 discretizes the scalar field into this many bins
	// before building the tree (the paper's simplification for large
	// graphs); 0 keeps exact values.
	SimplifyBins int
	// ColorBy optionally names a second registered measure used to
	// color the terrain (Section II-F). It must share the height
	// measure's vertex/edge basis.
	ColorBy string
	// Layout controls boundary margins and minimum child shares.
	Layout terrain.LayoutOptions
}

// Analyze runs the whole pipeline by measure name: evaluate the
// registered measure, build the scalar field and its super scalar tree
// (Algorithm 1 or 3 plus Algorithm 2, chosen by the measure's kind),
// lay the tree out, and color it — by its own heights, or by the
// ColorBy measure when given.
//
// Each call uses a fresh Analyzer; callers running many analyses
// should hold their own Analyzer so its pooled sweep state is reused
// across calls.
func Analyze(g *Graph, measure string, opts AnalyzeOptions) (*Terrain, error) {
	return NewAnalyzer().Analyze(g, measure, opts)
}

func unknownMeasure(name string) error {
	return fmt.Errorf("scalarfield: unknown measure %q (registered: %s)",
		name, strings.Join(measures.Names(), ", "))
}
