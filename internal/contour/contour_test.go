package contour

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/oracle"
)

func pathGraph(n int) *graph.Graph {
	var edges []graph.Edge
	for i := int32(0); i+1 < int32(n); i++ {
		edges = append(edges, graph.Edge{U: i, V: i + 1})
	}
	return graph.FromEdges(n, edges)
}

func randomGraph(seed int64, n int, p float64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	for u := int32(0); u < int32(n); u++ {
		for v := u + 1; v < int32(n); v++ {
			if rng.Float64() < p {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
	}
	return graph.FromEdges(n, edges)
}

// bruteSublevel extracts maximal α-sublevel components by flood fill.
func bruteSublevel(g *graph.Graph, values []float64, alpha float64) [][]int32 {
	n := g.NumVertices()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]int32
	for v := int32(0); v < int32(n); v++ {
		if comp[v] >= 0 || values[v] > alpha {
			continue
		}
		id := int32(len(comps))
		var set []int32
		stack := []int32{v}
		comp[v] = id
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			set = append(set, x)
			for _, u := range g.Neighbors(x) {
				if comp[u] < 0 && values[u] <= alpha {
					comp[u] = id
					stack = append(stack, u)
				}
			}
		}
		sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
		comps = append(comps, set)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i][0] < comps[j][0] })
	return comps
}

func TestSublevelComponentsMatchBruteForce(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := randomGraph(seed, 30, 0.1)
		rng := rand.New(rand.NewSource(seed + 100))
		values := make([]float64, g.NumVertices())
		for i := range values {
			values[i] = float64(rng.Intn(6)) // duplicates on purpose
		}
		st, err := NewSublevelTree(g, values)
		if err != nil {
			t.Fatal(err)
		}
		for alpha := -1.0; alpha <= 6.5; alpha += 0.5 {
			got := st.ComponentsAt(alpha)
			want := bruteSublevel(g, values, alpha)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d α=%g: sublevel components %v, want %v", seed, alpha, got, want)
			}
		}
	}
}

func TestSublevelBasin(t *testing.T) {
	// Valley in the middle of a path: values 5 4 1 4 5.
	g := pathGraph(5)
	values := []float64{5, 4, 1, 4, 5}
	st, err := NewSublevelTree(g, values)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Basin(2); !reflect.DeepEqual(got, []int32{2}) {
		t.Fatalf("Basin(2) = %v, want [2]", got)
	}
	// Vertex 1's basin at level 4 spans 1..3 (vertex 0 and 4 are 5 > 4).
	if got := st.Basin(1); !reflect.DeepEqual(got, []int32{1, 2, 3}) {
		t.Fatalf("Basin(1) = %v, want [1 2 3]", got)
	}
}

func TestSublevelScalarUnnegated(t *testing.T) {
	g := pathGraph(3)
	values := []float64{3, 1, 2}
	st, err := NewSublevelTree(g, values)
	if err != nil {
		t.Fatal(err)
	}
	for item := int32(0); item < 3; item++ {
		if got := st.Scalar(st.NodeOf(item)); got != values[item] {
			t.Fatalf("Scalar(NodeOf(%d)) = %g, want %g", item, got, values[item])
		}
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	// Parent scalars strictly increase (climbing out of the basin).
	for s := int32(0); s < int32(st.Len()); s++ {
		if p := st.Parent(s); p >= 0 && st.Scalar(s) >= st.Scalar(p) {
			t.Fatalf("node %d scalar %g not below parent's %g", s, st.Scalar(s), st.Scalar(p))
		}
	}
}

func TestSublevelRejectsBadField(t *testing.T) {
	g := pathGraph(3)
	if _, err := NewSublevelTree(g, []float64{1, 2}); err == nil {
		t.Fatal("want error for wrong field length")
	}
}

func TestSpectrumAgainstBruteForce(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := randomGraph(seed, 28, 0.12)
		rng := rand.New(rand.NewSource(seed + 7))
		values := make([]float64, g.NumVertices())
		for i := range values {
			values[i] = float64(rng.Intn(5))
		}
		f := core.MustVertexField(g, values)
		st := core.VertexSuperTree(f)
		sp := NewSpectrum(st)
		for alpha := -0.5; alpha <= 5.0; alpha += 0.25 {
			wantComps := len(oracle.Components(f.G, f.Values, false, alpha))
			if got := sp.ComponentsAt(alpha); got != wantComps {
				t.Fatalf("seed %d α=%g: B0 = %d, want %d", seed, alpha, got, wantComps)
			}
			wantItems := 0
			for _, v := range values {
				if v >= alpha {
					wantItems++
				}
			}
			if got := sp.ItemsAt(alpha); got != wantItems {
				t.Fatalf("seed %d α=%g: survivors = %d, want %d", seed, alpha, got, wantItems)
			}
		}
	}
}

func TestSpectrumTwoPeaks(t *testing.T) {
	// Path with heights 1 3 1 3 1: two peaks separated above α=1.
	g := pathGraph(5)
	values := []float64{1, 3, 1, 3, 1}
	st := core.VertexSuperTree(core.MustVertexField(g, values))
	sp := NewSpectrum(st)
	if got := sp.ComponentsAt(1); got != 1 {
		t.Fatalf("B0(1) = %d, want 1 (whole path)", got)
	}
	if got := sp.ComponentsAt(2); got != 2 {
		t.Fatalf("B0(2) = %d, want 2 (two peaks)", got)
	}
	if got := sp.ComponentsAt(3.5); got != 0 {
		t.Fatalf("B0(3.5) = %d, want 0", got)
	}
	alpha, count := sp.MaxComponents()
	if count != 2 || alpha != 3 {
		t.Fatalf("MaxComponents = (%g, %d), want (3, 2)", alpha, count)
	}
}

func TestSpectrumMonotoneItems(t *testing.T) {
	g := randomGraph(5, 40, 0.08)
	values := make([]float64, g.NumVertices())
	rng := rand.New(rand.NewSource(11))
	for i := range values {
		values[i] = rng.Float64() * 10
	}
	sp := NewSpectrum(core.VertexSuperTree(core.MustVertexField(g, values)))
	for i := 1; i < len(sp.Levels); i++ {
		if sp.Items[i] > sp.Items[i-1] {
			t.Fatalf("survivor curve not non-increasing at level %d", i)
		}
		if sp.Levels[i] <= sp.Levels[i-1] {
			t.Fatalf("levels not strictly increasing at %d", i)
		}
	}
	// At the minimum level every item survives and the graph's
	// components equal its connected components.
	if sp.Items[0] != g.NumVertices() {
		t.Fatalf("survivors at min level = %d, want %d", sp.Items[0], g.NumVertices())
	}
}

func TestSpectrumQuickComponentCountsPositive(t *testing.T) {
	// Property: at every stored level, B0 >= 1 and survivors >= B0
	// (each component holds at least one item).
	check := func(seed int64) bool {
		g := randomGraph(seed%50, 20, 0.15)
		rng := rand.New(rand.NewSource(seed))
		values := make([]float64, g.NumVertices())
		for i := range values {
			values[i] = float64(rng.Intn(4))
		}
		sp := NewSpectrum(core.VertexSuperTree(core.MustVertexField(g, values)))
		for i := range sp.Levels {
			if sp.Components[i] < 1 || sp.Items[i] < sp.Components[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestElbowLevel(t *testing.T) {
	g := pathGraph(7)
	values := []float64{1, 5, 1, 5, 1, 5, 1}
	sp := NewSpectrum(core.VertexSuperTree(core.MustVertexField(g, values)))
	// Max B0 is 3 at α=5; fraction 1.0 must land on 5.
	if got := sp.ElbowLevel(1.0); got != 5 {
		t.Fatalf("ElbowLevel(1.0) = %g, want 5", got)
	}
	// Fraction 0.1 is satisfied already at the lowest level.
	if got := sp.ElbowLevel(0.1); got != 1 {
		t.Fatalf("ElbowLevel(0.1) = %g, want 1", got)
	}
}

func TestSpectrumEdgeField(t *testing.T) {
	// The spectrum works on any SuperTree, including edge scalar trees.
	g := pathGraph(4) // edges 0-1, 1-2, 2-3
	ef := core.MustEdgeField(g, []float64{2, 1, 2})
	st := core.EdgeSuperTree(ef)
	sp := NewSpectrum(st)
	if got := sp.ComponentsAt(2); got != 2 {
		t.Fatalf("edge B0(2) = %d, want 2", got)
	}
	if got := sp.ComponentsAt(1); got != 1 {
		t.Fatalf("edge B0(1) = %d, want 1", got)
	}
}

func TestSublevelDualityWithSuperlevel(t *testing.T) {
	// The split tree of f is the join tree of -f: component sets at α
	// under <= must equal superlevel components of -f at -α.
	g := randomGraph(21, 25, 0.12)
	rng := rand.New(rand.NewSource(3))
	values := make([]float64, g.NumVertices())
	for i := range values {
		values[i] = float64(rng.Intn(5))
	}
	neg := make([]float64, len(values))
	for i, v := range values {
		neg[i] = -v
	}
	sub, err := NewSublevelTree(g, values)
	if err != nil {
		t.Fatal(err)
	}
	fNeg := core.MustVertexField(g, neg)
	for alpha := -0.5; alpha <= 5.0; alpha += 0.5 {
		got := sub.ComponentsAt(alpha)
		want := oracle.Components(fNeg.G, fNeg.Values, false, -alpha)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("α=%g: sublevel %v != superlevel-of-negated %v", alpha, got, want)
		}
	}
}

// TestNewSpectrumAllocs gates NewSpectrum at one allocation count for
// trees of very different sizes, on a fractional field (the distinct
// levels go through the radix sort) and an integer one (the counting
// sort).
func TestNewSpectrumAllocs(t *testing.T) {
	for _, c := range []struct {
		name  string
		scale float64
		want  float64
	}{{"fractional", 0.25, 10}, {"integer", 1, 8}} {
		var counts []float64
		for _, n := range []int{300, 30000} {
			rng := rand.New(rand.NewSource(int64(n)))
			b := graph.NewBuilder(n)
			values := make([]float64, n)
			for i := range values {
				if i > 0 {
					b.AddEdge(int32(i), rng.Int31n(int32(i)))
				}
				values[i] = c.scale * float64(rng.Intn(256))
			}
			st := core.VertexSuperTree(core.MustVertexField(b.Build(), values))
			counts = append(counts, testing.AllocsPerRun(5, func() { NewSpectrum(st) }))
			t.Logf("%s, %d super nodes: %.0f allocs", c.name, st.Len(), counts[len(counts)-1])
		}
		if counts[0] != c.want || counts[1] != c.want {
			t.Errorf("%s: NewSpectrum allocs %v, want %.0f at every size", c.name, counts, c.want)
		}
	}
}
