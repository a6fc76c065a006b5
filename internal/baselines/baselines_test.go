package baselines

import (
	"image/color"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/measures"
)

func randomGraph(seed int64, n int, density float64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < int(density*float64(n)); i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.Build()
}

func twoCliquesBridged(k int) *graph.Graph {
	b := graph.NewBuilder(2 * k)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			b.AddEdge(int32(i), int32(j))
			b.AddEdge(int32(k+i), int32(k+j))
		}
	}
	b.AddEdge(int32(k-1), int32(k))
	return b.Build()
}

func inUnitSquare(pos []Point) bool {
	for _, p := range pos {
		if p.X < 0 || p.X > 1 || p.Y < 0 || p.Y > 1 ||
			math.IsNaN(p.X) || math.IsNaN(p.Y) {
			return false
		}
	}
	return true
}

func TestSpringLayoutBounds(t *testing.T) {
	g := randomGraph(1, 60, 2)
	pos := SpringLayout(g, SpringOptions{Seed: 1})
	if len(pos) != 60 {
		t.Fatalf("got %d positions", len(pos))
	}
	if !inUnitSquare(pos) {
		t.Error("positions escaped the unit square")
	}
}

func TestSpringLayoutDeterministic(t *testing.T) {
	g := randomGraph(2, 40, 2)
	a := SpringLayout(g, SpringOptions{Seed: 7})
	b := SpringLayout(g, SpringOptions{Seed: 7})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at vertex %d", i)
		}
	}
}

func TestSpringLayoutEdgesShorterThanRandomPairs(t *testing.T) {
	// A force layout must pull adjacent vertices closer together than
	// arbitrary pairs on a clustered graph.
	g := twoCliquesBridged(12)
	pos := SpringLayout(g, SpringOptions{Seed: 3, Iterations: 150})
	var edgeDist float64
	for _, e := range g.Edges() {
		edgeDist += math.Hypot(pos[e.U].X-pos[e.V].X, pos[e.U].Y-pos[e.V].Y)
	}
	edgeDist /= float64(g.NumEdges())
	var pairDist float64
	cnt := 0
	for u := 0; u < g.NumVertices(); u++ {
		for v := u + 1; v < g.NumVertices(); v++ {
			pairDist += math.Hypot(pos[u].X-pos[v].X, pos[u].Y-pos[v].Y)
			cnt++
		}
	}
	pairDist /= float64(cnt)
	if edgeDist >= pairDist {
		t.Errorf("edge dist %g >= random pair dist %g", edgeDist, pairDist)
	}
}

func TestSpringLayoutSeparatesCliques(t *testing.T) {
	g := twoCliquesBridged(10)
	pos := SpringLayout(g, SpringOptions{Seed: 5, Iterations: 200})
	// Centroid distance between the cliques should exceed the mean
	// intra-clique spread.
	c1 := centroid(pos[:10])
	c2 := centroid(pos[10:])
	between := math.Hypot(c1.X-c2.X, c1.Y-c2.Y)
	spread := (meanDist(pos[:10], c1) + meanDist(pos[10:], c2)) / 2
	if between < spread {
		t.Errorf("clique centroids %g apart vs spread %g", between, spread)
	}
}

func centroid(ps []Point) Point {
	var c Point
	for _, p := range ps {
		c.X += p.X
		c.Y += p.Y
	}
	c.X /= float64(len(ps))
	c.Y /= float64(len(ps))
	return c
}

func meanDist(ps []Point, c Point) float64 {
	var s float64
	for _, p := range ps {
		s += math.Hypot(p.X-c.X, p.Y-c.Y)
	}
	return s / float64(len(ps))
}

func TestSpringLayoutDegenerateSizes(t *testing.T) {
	if pos := SpringLayout(graph.NewBuilder(0).Build(), SpringOptions{}); len(pos) != 0 {
		t.Error("empty graph should give no positions")
	}
	pos := SpringLayout(graph.NewBuilder(1).Build(), SpringOptions{})
	if pos[0] != (Point{0.5, 0.5}) {
		t.Errorf("singleton position = %v", pos[0])
	}
}

func TestSpringLayoutSampledRepulsion(t *testing.T) {
	g := randomGraph(4, 100, 2)
	pos := SpringLayout(g, SpringOptions{Seed: 4, RepulsionSample: 16, Iterations: 50})
	if !inUnitSquare(pos) {
		t.Error("sampled layout escaped the unit square")
	}
}

func TestLaNetViShellRadii(t *testing.T) {
	// Higher-core vertices must sit nearer the center on average.
	g := twoCliquesBridged(10)
	pos, core := LaNetVi(g, 1)
	var rHigh, rLow float64
	var nHigh, nLow int
	maxCore := int32(0)
	for _, c := range core {
		if c > maxCore {
			maxCore = c
		}
	}
	for v, p := range pos {
		r := math.Hypot(p.X-0.5, p.Y-0.5)
		if core[v] == maxCore {
			rHigh += r
			nHigh++
		} else if core[v] <= 1 {
			rLow += r
			nLow++
		}
	}
	if nHigh == 0 {
		t.Fatal("no max-core vertices")
	}
	if nLow > 0 && rHigh/float64(nHigh) >= rLow/float64(nLow) {
		t.Errorf("max-core mean radius %g >= low-core %g",
			rHigh/float64(nHigh), rLow/float64(nLow))
	}
}

func TestLaNetViBounds(t *testing.T) {
	g := randomGraph(6, 80, 2.5)
	pos, core := LaNetVi(g, 2)
	if !inUnitSquare(pos) {
		t.Error("LaNet-vi positions escaped the unit square")
	}
	want := measures.CoreNumbers(g)
	for v := range core {
		if core[v] != want[v] {
			t.Fatalf("returned core numbers differ at %d", v)
		}
	}
}

func TestLaNetViEmpty(t *testing.T) {
	pos, core := LaNetVi(graph.NewBuilder(0).Build(), 1)
	if len(pos) != 0 || len(core) != 0 {
		t.Error("empty graph should give empty results")
	}
}

func TestOpenOrdLayoutBounds(t *testing.T) {
	g := randomGraph(8, 300, 2)
	pos := OpenOrdLayout(g, OpenOrdOptions{Seed: 8})
	if len(pos) != 300 {
		t.Fatalf("got %d positions", len(pos))
	}
	if !inUnitSquare(pos) {
		t.Error("OpenOrd positions escaped the unit square")
	}
}

func TestOpenOrdSeparatesCliques(t *testing.T) {
	g := twoCliquesBridged(30)
	pos := OpenOrdLayout(g, OpenOrdOptions{Seed: 2, CoarsestSize: 8})
	c1 := centroid(pos[:30])
	c2 := centroid(pos[30:])
	between := math.Hypot(c1.X-c2.X, c1.Y-c2.Y)
	spread := (meanDist(pos[:30], c1) + meanDist(pos[30:], c2)) / 2
	if between < spread {
		t.Errorf("clique centroids %g apart vs spread %g", between, spread)
	}
}

func TestCoarsenShrinks(t *testing.T) {
	g := randomGraph(3, 100, 3)
	coarse, memberOf := coarsen(g, 1)
	if coarse.NumVertices() >= g.NumVertices() {
		t.Errorf("coarsening did not shrink: %d -> %d",
			g.NumVertices(), coarse.NumVertices())
	}
	for v, c := range memberOf {
		if c < 0 || int(c) >= coarse.NumVertices() {
			t.Fatalf("vertex %d mapped to invalid coarse vertex %d", v, c)
		}
	}
}

func TestCSVPlotContiguousDenseRegion(t *testing.T) {
	g := twoCliquesBridged(8)
	p := NewCSVPlot(g)
	if len(p.Order) != 16 || len(p.Value) != 16 {
		t.Fatalf("plot sizes %d, %d", len(p.Order), len(p.Value))
	}
	// The two cliques are the two core-7 regions; each must occupy a
	// contiguous run, so at threshold 7 we see exactly... both cliques
	// share core number 7 and are connected by a bridge; the BFS order
	// may interleave bridge vertices. At minimum the max value is 7.
	max := 0.0
	for _, v := range p.Value {
		if v > max {
			max = v
		}
	}
	if max != 7 {
		t.Errorf("max plotted cohesion = %g, want 7", max)
	}
}

func TestCSVPlotHumps(t *testing.T) {
	p := &CSVPlot{Value: []float64{1, 5, 5, 1, 5, 1, 1, 5, 5, 5}}
	if h := p.Humps(5); h != 3 {
		t.Errorf("Humps(5) = %d, want 3", h)
	}
	if h := p.Humps(0.5); h != 1 {
		t.Errorf("Humps(0.5) = %d, want 1", h)
	}
	if h := p.Humps(10); h != 0 {
		t.Errorf("Humps(10) = %d, want 0", h)
	}
}

func TestCSVPlotPermutation(t *testing.T) {
	g := randomGraph(12, 50, 2)
	p := NewCSVPlot(g)
	seen := make([]bool, 50)
	for _, v := range p.Order {
		if seen[v] {
			t.Fatalf("vertex %d appears twice in CSV order", v)
		}
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("vertex %d missing from CSV order", v)
		}
	}
}

func TestDrawNodeLink(t *testing.T) {
	g := twoCliquesBridged(5)
	pos := SpringLayout(g, SpringOptions{Seed: 1, Iterations: 30})
	colors := make([]color.RGBA, g.NumVertices())
	for i := range colors {
		colors[i] = color.RGBA{255, 0, 0, 255}
	}
	img := DrawNodeLink(g, pos, colors, DrawOptions{Size: 200})
	if img.Bounds().Dx() != 200 {
		t.Fatalf("image size %v", img.Bounds())
	}
	// Red node pixels must exist.
	red := 0
	for y := 0; y < 200; y++ {
		for x := 0; x < 200; x++ {
			if img.RGBAAt(x, y).R == 255 && img.RGBAAt(x, y).G == 0 {
				red++
			}
		}
	}
	if red == 0 {
		t.Error("no node pixels drawn")
	}
}

func TestDrawLineClipped(t *testing.T) {
	g := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}})
	// Positions slightly out of range must not panic.
	pos := []Point{{-0.1, 0.5}, {1.1, 0.5}}
	img := DrawNodeLink(g, pos, nil, DrawOptions{Size: 50})
	if img == nil {
		t.Fatal("nil image")
	}
}
