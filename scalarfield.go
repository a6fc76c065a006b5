// Package scalarfield is the public API of this reproduction of
// "Analyzing and Visualizing Scalar Fields on Graphs" (Zhang, Wang,
// Parthasarathy; ICDE 2017).
//
// A scalar graph is a graph whose vertices (or edges) carry a numeric
// measure — a k-core number, a centrality, a community score, a raw
// attribute. The library analyzes such graphs through their maximal
// α-connected components, summarizes all of them at once in a scalar
// tree (the paper's Algorithms 1–3), and renders the tree as a 3D
// terrain whose peaks are dense subgraphs, communities, or any other
// component-of-interest the measure expresses.
//
// Typical use:
//
//	g, _, err := scalarfield.LoadEdgeList(file)
//	t, err := scalarfield.NewVertexTerrain(g, scalarfield.CoreNumbers(g))
//	t.ColorByValues(scalarfield.DegreeCentrality(g)) // second measure
//	err = t.RenderPNG("terrain.png", scalarfield.RenderOptions{})
//	peaks := t.Peaks(12) // the K-cores with K = 12
//
// The internal packages supply the substrates (graph engine, measures,
// community/role detection, correlation indexes, baseline layouts,
// dataset generators); this package re-exports the surface a
// downstream user needs.
package scalarfield

import (
	"fmt"
	"image"
	"image/color"
	"io"

	"repro/internal/core"
	"repro/internal/correlation"
	"repro/internal/graph"
	"repro/internal/measures"
	"repro/internal/render"
	"repro/internal/terrain"
)

// Graph is an immutable undirected graph in CSR form.
type Graph = graph.Graph

// Edge is an undirected edge with canonical U <= V.
type Edge = graph.Edge

// Builder accumulates edges and produces a Graph.
type Builder = graph.Builder

// Peak is a peakα of the terrain: one maximal α-connected component.
type Peak = terrain.Peak

// RenderOptions configures terrain rendering (camera angle, zoom,
// image size).
type RenderOptions = render.Options

// NewBuilder returns a Builder over n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a graph over n vertices from an edge list.
func FromEdges(n int, edges []Edge) *Graph { return graph.FromEdges(n, edges) }

// LoadEdgeList parses a SNAP-style edge list (comments with '#' or
// '%'; arbitrary integer IDs, compacted in order of first appearance).
// It returns the graph and the original ID of each compact vertex.
func LoadEdgeList(r io.Reader) (*Graph, []int64, error) { return graph.ReadEdgeList(r) }

// --- Scalar measures (Section II-D and III of the paper) ---

// CoreNumbers returns KC(v) for every vertex: the largest K such that
// v belongs to a K-core. O(|E|) peeling.
func CoreNumbers(g *Graph) []float64 { return measures.CoreNumbersFloat(g) }

// TrussNumbers returns KT(e) for every edge: the largest K such that e
// belongs to a K-truss (K = triangles per edge, the paper's
// convention).
func TrussNumbers(g *Graph) []float64 { return measures.TrussNumbersFloat(g) }

// DegreeCentrality returns each vertex's degree.
func DegreeCentrality(g *Graph) []float64 { return measures.DegreeCentrality(g) }

// BetweennessCentrality returns exact Brandes betweenness, computed
// on the batched MS-Brandes engine (64 sources per traversal).
func BetweennessCentrality(g *Graph) []float64 { return measures.BetweennessCentrality(g) }

// ApproxBetweennessCentrality estimates betweenness from sampled
// sources; use it when exact O(|V|·|E|) is too slow. samples >= |V|
// computes exact betweenness; samples <= 0 draws no pivots and returns
// the all-zero field.
func ApproxBetweennessCentrality(g *Graph, samples int, seed int64) []float64 {
	return measures.ApproxBetweennessCentrality(g, samples, seed)
}

// ComponentDiameter returns, per vertex, the diameter of its connected
// component, via batched max-eccentricity with an early cutoff.
func ComponentDiameter(g *Graph) []float64 { return measures.ComponentDiameter(g) }

// KHopSize returns, per vertex, the number of other vertices within
// measures.KHopRadius hops.
func KHopSize(g *Graph) []float64 { return measures.KHopSize(g) }

// ClosenessCentrality returns component-normalized closeness.
func ClosenessCentrality(g *Graph) []float64 { return measures.ClosenessCentrality(g) }

// HarmonicCentrality returns harmonic centrality.
func HarmonicCentrality(g *Graph) []float64 { return measures.HarmonicCentrality(g) }

// PageRank returns PageRank with the given damping (0.85 is standard).
func PageRank(g *Graph, damping float64) []float64 {
	return measures.PageRank(g, damping, 1e-10, 200)
}

// ClusteringCoefficients returns each vertex's local clustering
// coefficient.
func ClusteringCoefficients(g *Graph) []float64 { return measures.ClusteringCoefficients(g) }

// TriangleDensity returns per-vertex triangle participation counts.
func TriangleDensity(g *Graph) []float64 { return measures.TriangleDensityField(g) }

// --- Correlation of multiple scalar fields (Section II-F) ---

// LocalCorrelationIndex computes LCI of two vertex fields over each
// vertex's 1-hop neighborhood.
func LocalCorrelationIndex(g *Graph, si, sj []float64) ([]float64, error) {
	return correlation.LCI(g, si, sj, correlation.Options{})
}

// GlobalCorrelationIndex computes GCI: the mean LCI over all vertices.
func GlobalCorrelationIndex(g *Graph, si, sj []float64) (float64, error) {
	return correlation.GCI(g, si, sj, correlation.Options{})
}

// OutlierScores negates an LCI field, surfacing vertices whose local
// correlation opposes the global trend (the paper's Section III-C).
func OutlierScores(lci []float64) []float64 { return correlation.OutlierScores(lci) }

// --- Terrain ---

// Terrain couples a scalar tree with its 2D layout and coloring and
// renders the paper's terrain visualization.
type Terrain struct {
	// Tree is the super scalar tree: every subtree is a maximal
	// α-connected component.
	Tree *core.SuperTree
	// Layout is the nested-boundary geometry, built on its first read.
	Layout *terrain.Layout

	// nodeColors is the explicit coloring; nil renders by height.
	nodeColors []color.RGBA
}

// TerrainOptions configures terrain construction.
type TerrainOptions struct {
	// SimplifyBins > 0 discretizes the scalar field into this many
	// bins before building the tree (the paper's simplification for
	// large graphs); 0 keeps exact values.
	SimplifyBins int
	// Layout controls boundary margins and minimum child shares.
	Layout terrain.LayoutOptions
}

// MaxSimplifyBins bounds the bins count a snapshot may carry: the
// snapshot codec rejects bins outside [0, MaxSimplifyBins], and
// query.ValidateKey refuses such keys before analysis, so no snapshot
// is stored that could not be read back.
const MaxSimplifyBins = 1 << 30

// firstOptions returns the optional trailing TerrainOptions argument,
// or the zero options when it is absent.
func firstOptions(opts []TerrainOptions) TerrainOptions {
	if len(opts) > 0 {
		return opts[0]
	}
	return TerrainOptions{}
}

// NewVertexTerrain builds the terrain of a vertex-based scalar graph:
// Algorithm 1, Algorithm 2, 2D layout. By default the terrain is
// colored by its own heights (red = high, blue = low).
func NewVertexTerrain(g *Graph, values []float64, opts ...TerrainOptions) (*Terrain, error) {
	var a Analyzer
	return a.vertexTerrain(g, values, firstOptions(opts))
}

// NewEdgeTerrain builds the terrain of an edge-based scalar graph
// using the optimized Algorithm 3.
func NewEdgeTerrain(g *Graph, values []float64, opts ...TerrainOptions) (*Terrain, error) {
	var a Analyzer
	return a.edgeTerrain(g, values, firstOptions(opts))
}

// NewTerrainFromTree builds a terrain directly from a previously
// constructed (e.g. deserialized) super scalar tree, skipping the
// Algorithm 1–3 construction. This mirrors the paper's pipeline split:
// the construction tool writes the tree, the visualization tool reads
// and renders it (Table II's tv).
func NewTerrainFromTree(tree *core.SuperTree, opts ...TerrainOptions) (*Terrain, error) {
	o := firstOptions(opts)
	if err := tree.Validate(); err != nil {
		return nil, err
	}
	return newTerrain(tree, o), nil
}

// SaveTree serializes the terrain's super scalar tree in the compact
// binary format of internal/core; LoadTree is its inverse.
func (t *Terrain) SaveTree(w io.Writer) error {
	_, err := t.Tree.WriteTo(w)
	return err
}

// LoadTree deserializes a super scalar tree written by SaveTree.
func LoadTree(r io.Reader) (*core.SuperTree, error) { return core.ReadSuperTree(r) }

// newTerrain wraps a valid super tree. It does O(1) work: the layout
// builds its geometry on first read and the default coloring is
// computed at render time, so analyses and snapshot decodes that only
// answer queries never pay for either.
func newTerrain(st *core.SuperTree, o TerrainOptions) *Terrain {
	return &Terrain{Tree: st, Layout: terrain.NewLayout(st, o.Layout)}
}

// ColorByValues colors the terrain by a second per-item measure
// (Section II-F's "color the terrain using the other scalar field"):
// red = most intense through blue = least.
func (t *Terrain) ColorByValues(itemValues []float64) error {
	if len(itemValues) != t.Tree.NumItems() {
		return fmt.Errorf("scalarfield: %d color values for %d items",
			len(itemValues), t.Tree.NumItems())
	}
	t.nodeColors = intensityColors(terrain.NodeIntensity(t.Tree, itemValues))
	return nil
}

// ColorByCategory colors the terrain by a nominal per-item attribute
// (dominant role, community, genus); each super node takes its
// members' majority category.
func (t *Terrain) ColorByCategory(itemCategory []int) error {
	if len(itemCategory) != t.Tree.NumItems() {
		return fmt.Errorf("scalarfield: %d categories for %d items",
			len(itemCategory), t.Tree.NumItems())
	}
	cats := terrain.NodeCategorical(t.Tree, itemCategory)
	t.nodeColors = make([]color.RGBA, len(cats))
	for s, c := range cats {
		t.nodeColors[s] = terrain.CategoryPalette(c)
	}
	return nil
}

func intensityColors(intensity []float64) []color.RGBA {
	out := make([]color.RGBA, len(intensity))
	for s, v := range intensity {
		out[s] = terrain.Colormap(v)
	}
	return out
}

// colors returns the explicit coloring, or else colors by the
// terrain's own heights (red = high, blue = low). The height coloring
// is computed per call rather than stored, so a terrain shared between
// goroutines is never written after construction.
func (t *Terrain) colors() []color.RGBA {
	if t.nodeColors != nil {
		return t.nodeColors
	}
	return intensityColors(terrain.Normalize(t.Tree.Scalar))
}

// Render produces the isometric 3D terrain image.
func (t *Terrain) Render(opts RenderOptions) *image.RGBA {
	hm := t.Layout.Rasterize(rasterRes(opts.Width), rasterRes(opts.Height))
	return render.TerrainPNG(hm, t.colors(), opts)
}

// RenderPNG renders and writes the terrain to a PNG file.
func (t *Terrain) RenderPNG(path string, opts RenderOptions) error {
	return render.WritePNG(path, t.Render(opts))
}

// RenderTreemap produces the linked 2D treemap view (Figure 5(a)).
func (t *Terrain) RenderTreemap(size int) *image.RGBA {
	hm := t.Layout.Rasterize(rasterRes(size), rasterRes(size))
	return render.TreemapPNG(hm, t.colors(), size, size)
}

// WriteSVG writes the nested boundaries as an SVG.
func (t *Terrain) WriteSVG(w io.Writer, size int) error {
	return render.BoundarySVG(w, t.Layout, t.colors(), size)
}

// WriteAnnotatedSVG writes the nested-boundary SVG with the top-K
// peaks at cut height alpha labeled K1, K2, … (the paper's figure
// annotations), each with its top scalar and component size.
func (t *Terrain) WriteAnnotatedSVG(w io.Writer, size int, alpha float64, topK int) error {
	return render.AnnotatedBoundarySVG(w, t.Layout, t.colors(), size, alpha, topK)
}

// WriteHTML writes a self-contained interactive HTML page rendering
// the terrain with mouse-drag rotation and wheel zoom — a shareable
// stand-in for the paper's interactive viewer.
func (t *Terrain) WriteHTML(w io.Writer, title string) error {
	return render.TerrainHTML(w, t.Layout, t.colors(), title)
}

// WriteOBJ writes the terrain as a Wavefront OBJ mesh.
func (t *Terrain) WriteOBJ(w io.Writer, resolution int, heightScale float64) error {
	if resolution <= 0 {
		resolution = 128
	}
	return render.TerrainOBJ(w, t.Layout.Rasterize(resolution, resolution), heightScale)
}

// Peaks returns the peakα regions at cut height α, highest first; each
// corresponds to one maximal α-connected component.
func (t *Terrain) Peaks(alpha float64) []Peak { return t.Layout.PeaksAt(alpha) }

// Components returns the item sets of all maximal α-connected
// components at the given α.
func (t *Terrain) Components(alpha float64) [][]int32 { return t.Tree.ComponentsAt(alpha) }

// MCC returns the maximal component for the item's own scalar value
// (Definition 2).
func (t *Terrain) MCC(item int32) []int32 { return t.Tree.MCC(item) }

// PeakItems returns the underlying item IDs of a peak — the paper's
// "select vertices in a peak" interaction used to list community
// members.
func (t *Terrain) PeakItems(p Peak) []int32 { return t.Tree.SubtreeItems(p.Node) }

func rasterRes(px int) int {
	// Raster resolution tracks the output size but stays bounded.
	switch {
	case px <= 0:
		return 192
	case px < 64:
		return 64
	case px > 512:
		return 512
	}
	return px
}
