package measures

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/par"
)

// Kind says whether a measure assigns scalars to vertices or to edges,
// which decides whether its field feeds Algorithm 1 or Algorithm 3.
type Kind int

const (
	// Vertex measures produce one value per vertex.
	Vertex Kind = iota
	// Edge measures produce one value per edge.
	Edge
)

func (k Kind) String() string {
	if k == Edge {
		return "edge"
	}
	return "vertex"
}

// Spec declares a named scalar measure for the registry: its kind and
// its compute function. Every consumer of measures — the HTTP server, the terrain CLI, the
// experiment harness, the public scalarfield API — resolves measures
// through the registry, so registering a Spec once lights the measure
// up everywhere at the same time.
type Spec struct {
	// Kind is Vertex or Edge.
	Kind Kind
	// Doc is a one-line description surfaced in CLI help and docs.
	Doc string
	// Compute evaluates the measure. Built-in kernels pick their own
	// worker count with par.Workers and return the same bits for any
	// count.
	Compute func(g *graph.Graph) []float64
}

var registry = map[string]Spec{}

// Register adds a measure under the given name. It panics on an empty
// name, a nil Compute, or a duplicate registration — all programmer
// errors caught at init time, never at serving time.
func Register(name string, s Spec) {
	if name == "" {
		panic("measures: Register with empty name")
	}
	if s.Compute == nil {
		panic(fmt.Sprintf("measures: Register(%q) with nil Compute", name))
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("measures: duplicate Register(%q)", name))
	}
	registry[name] = s
}

// Lookup resolves a registered measure by name.
func Lookup(name string) (Spec, bool) {
	s, ok := registry[name]
	return s, ok
}

// Names returns every registered measure name in sorted order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ExactBetweennessLimit is the vertex count above which the registered
// "betweenness" measure switches from exact Brandes (O(|V|·|E|)) to
// source-sampled approximation. It sits a factor above the shared
// par.SerialCutoff so the exact kernel has a multi-worker window:
// graphs in (SerialCutoff, ExactBetweennessLimit] shard the exact
// computation across cores before sampling takes over.
const ExactBetweennessLimit = 4 * par.SerialCutoff

// betweennessSamples and betweennessSeed fix the sampled-source
// configuration so registry results are reproducible run to run.
const (
	betweennessSamples = 512
	betweennessSeed    = 1
)

// brandesMeasure is the registry's Compute for the Brandes measure
// name: the pivot count brandesMeasures gives it, on the batched
// MS-Brandes engine across par.Workers cores.
func brandesMeasure(name string) func(*graph.Graph) []float64 {
	samples := brandesMeasures[name]
	return func(g *graph.Graph) []float64 {
		n := g.NumVertices()
		return approxBetweenness(g, samples(n), betweennessSeed, par.Workers(n))
	}
}

func init() {
	Register("kcore", Spec{
		Kind:    Vertex,
		Doc:     "K-core number KC(v): largest K with v in a K-core (Section II-D)",
		Compute: CoreNumbersFloat,
	})
	Register("onion", Spec{
		Kind:    Vertex,
		Doc:     "onion-decomposition layer: a strictly finer peeling than kcore",
		Compute: OnionLayersFloat,
	})
	Register("degree", Spec{
		Kind:    Vertex,
		Doc:     "degree centrality",
		Compute: DegreeCentrality,
	})
	Register("betweenness", Spec{
		Kind:    Vertex,
		Doc:     "Brandes betweenness (batched MS-Brandes); source-sampled beyond ExactBetweennessLimit vertices",
		Compute: brandesMeasure("betweenness"),
	})
	Register("betweenness-sampled", Spec{
		Kind:    Vertex,
		Doc:     "sampled-pivot betweenness: 512 seeded pivots scaled n/k, batched MS-Brandes at every size",
		Compute: brandesMeasure("betweenness-sampled"),
	})
	Register("closeness", Spec{
		Kind:    Vertex,
		Doc:     "component-normalized closeness centrality",
		Compute: ClosenessCentrality,
	})
	Register("harmonic", Spec{
		Kind:    Vertex,
		Doc:     "harmonic centrality",
		Compute: HarmonicCentrality,
	})
	Register("eccentricity", Spec{
		Kind:    Vertex,
		Doc:     "eccentricity: max BFS distance within the vertex's component (batched MS-BFS)",
		Compute: Eccentricity,
	})
	Register("diameter", Spec{
		Kind:    Vertex,
		Doc:     "component diameter: batched max-eccentricity with 2·radius early cutoff",
		Compute: ComponentDiameter,
	})
	Register("khop", Spec{
		Kind:    Vertex,
		Doc:     "k-hop neighborhood size: vertices within 3 hops (batched MS-BFS)",
		Compute: KHopSize,
	})
	Register("pagerank", Spec{
		Kind: Vertex,
		Doc:  "PageRank with damping 0.85",
		Compute: func(g *graph.Graph) []float64 {
			return PageRank(g, 0.85, 1e-10, 200)
		},
	})
	Register("katz", Spec{
		Kind: Vertex,
		Doc:  "Katz centrality with automatic safe attenuation",
		Compute: func(g *graph.Graph) []float64 {
			return KatzCentrality(g, 0, 1e-10, 500)
		},
	})
	Register("triangles", Spec{
		Kind:    Vertex,
		Doc:     "per-vertex triangle participation count",
		Compute: TriangleDensityField,
	})
	Register("clustering", Spec{
		Kind:    Vertex,
		Doc:     "local clustering coefficient",
		Compute: ClusteringCoefficients,
	})
	Register("ktruss", Spec{
		Kind:    Edge,
		Doc:     "K-truss number KT(e): largest K with e in a K-truss (Section II-D)",
		Compute: TrussNumbersFloat,
	})
	Register("edgebetweenness", Spec{
		Kind:    Edge,
		Doc:     "exact per-edge betweenness centrality",
		Compute: EdgeBetweennessCentrality,
	})
}
