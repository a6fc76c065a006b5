package terrain

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/oracle"
)

func randomSuperTree(seed int64, n int, valueRange int) (*core.SuperTree, *core.VertexField) {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < 2*n; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	g := b.Build()
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(rng.Intn(valueRange))
	}
	f := core.MustVertexField(g, values)
	return core.VertexSuperTree(f), f
}

// paperFigure4Tree builds a small tree shaped like the paper's
// Figure 4: a root chain with a two-way split.
func paperFigure4Tree() *core.SuperTree {
	// Path-ish graph: 9 vertices, scalars 1..9ish, with a branch.
	b := graph.NewBuilder(9)
	// Chain: 8(low) - 7 - 6(split point); branches 6-{0,1}, 6-{2,3,4};
	// plus 5 in first branch.
	b.AddEdge(8, 7)
	b.AddEdge(7, 6)
	b.AddEdge(6, 0)
	b.AddEdge(0, 1)
	b.AddEdge(6, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	b.AddEdge(0, 5)
	g := b.Build()
	values := []float64{5, 6, 4, 5.5, 7, 6.5, 3, 2, 1}
	return core.VertexSuperTree(core.MustVertexField(g, values))
}

func TestLayoutValidates(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		st, _ := randomSuperTree(seed, 50, 5)
		l := NewLayout(st, LayoutOptions{})
		if err := l.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestLayoutAreasMonotoneWithSubtreeSize(t *testing.T) {
	// Sibling boundaries: a larger subtree gets at least as much area
	// (up to the MinShare floor).
	st := paperFigure4Tree()
	l := NewLayout(st, LayoutOptions{})
	sizes := st.SubtreeSize()
	for s := int32(0); s < int32(st.Len()); s++ {
		sib := st.Children(s)
		for i := 0; i < len(sib); i++ {
			for j := 0; j < len(sib); j++ {
				if sizes[sib[i]] > sizes[sib[j]] {
					ai, aj := l.Rects()[sib[i]].Area(), l.Rects()[sib[j]].Area()
					if ai+1e-12 < aj {
						t.Errorf("subtree %d (size %d, area %g) smaller than %d (size %d, area %g)",
							sib[i], sizes[sib[i]], ai, sib[j], sizes[sib[j]], aj)
					}
				}
			}
		}
	}
}

// TestLayoutHeightsAreScalars: every boundary is lifted to its node's
// scalar, and the ground outside all boundaries lies below them all.
func TestLayoutHeightsAreScalars(t *testing.T) {
	st := paperFigure4Tree()
	hm := NewLayout(st, LayoutOptions{}).Rasterize(256, 256)
	lifted := make([]bool, st.Len())
	for i, n := range hm.Node {
		switch {
		case n >= 0 && hm.Height[i] == st.Scalar[n]:
			lifted[n] = true
		case n >= 0:
			t.Fatalf("cell %d of node %d at height %g, want scalar %g", i, n, hm.Height[i], st.Scalar[n])
		case hm.Height[i] >= slices.Min(st.Scalar):
			t.Fatalf("ground cell %d at height %g, not below every scalar", i, hm.Height[i])
		}
	}
	if i := slices.Index(lifted, false); i >= 0 {
		t.Errorf("node %d owns no cell at its scalar", i)
	}
}

func TestLayoutSingleNode(t *testing.T) {
	g := graph.NewBuilder(1).Build()
	st := core.VertexSuperTree(core.MustVertexField(g, []float64{3}))
	l := NewLayout(st, LayoutOptions{})
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if l.Rects()[0].Area() < 0.9 {
		t.Errorf("single node should fill the square, got %+v", l.Rects()[0])
	}
}

func TestLayoutForest(t *testing.T) {
	// Two disconnected components of different sizes: both roots get
	// area, proportional to size.
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3) // sizes 4 and 2
	b.AddEdge(4, 5)
	g := b.Build()
	st := core.VertexSuperTree(core.MustVertexField(g, []float64{4, 3, 2, 1, 2, 1}))
	l := NewLayout(st, LayoutOptions{})
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	roots := st.Roots()
	if len(roots) != 2 {
		t.Fatalf("expected 2 roots, got %v", roots)
	}
	sizes := st.SubtreeSize()
	big, small := roots[0], roots[1]
	if sizes[big] < sizes[small] {
		big, small = small, big
	}
	if l.Rects()[big].Area() <= l.Rects()[small].Area() {
		t.Errorf("larger component area %g <= smaller %g",
			l.Rects()[big].Area(), l.Rects()[small].Area())
	}
}

func TestQuickLayoutNesting(t *testing.T) {
	f := func(seed int64) bool {
		st, _ := randomSuperTree(seed, 30, 4)
		l := NewLayout(st, LayoutOptions{})
		return l.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPeaksMatchComponents(t *testing.T) {
	// Every peakα corresponds to one maximal α-connected component
	// (Definition 6 discussion).
	st, fld := randomSuperTree(3, 60, 5)
	l := NewLayout(st, LayoutOptions{})
	for alpha := 0.0; alpha <= 5; alpha += 1 {
		peaks := l.PeaksAt(alpha)
		comps := oracle.Components(fld.G, fld.Values, false, alpha)
		if len(peaks) != len(comps) {
			t.Fatalf("α=%g: %d peaks, %d components", alpha, len(peaks), len(comps))
		}
		// Item counts must match as multisets.
		pc := map[int]int{}
		cc := map[int]int{}
		for _, p := range peaks {
			pc[p.Items]++
		}
		for _, c := range comps {
			cc[len(c)]++
		}
		for k, v := range cc {
			if pc[k] != v {
				t.Fatalf("α=%g: component size %d count %d vs peaks %d", alpha, k, v, pc[k])
			}
		}
	}
}

func TestPeaksSortedByTop(t *testing.T) {
	st, _ := randomSuperTree(9, 80, 8)
	l := NewLayout(st, LayoutOptions{})
	peaks := l.PeaksAt(1)
	for i := 1; i < len(peaks); i++ {
		if peaks[i].Top > peaks[i-1].Top {
			t.Errorf("peaks not sorted by Top: %g after %g", peaks[i].Top, peaks[i-1].Top)
		}
	}
}

func TestPeakNesting(t *testing.T) {
	// A peak at higher α must be spatially inside some peak at lower α.
	st, _ := randomSuperTree(21, 60, 6)
	l := NewLayout(st, LayoutOptions{})
	hi := l.PeaksAt(4)
	lo := l.PeaksAt(1)
	for _, hp := range hi {
		cx := (hp.Bounds.X0 + hp.Bounds.X1) / 2
		cy := (hp.Bounds.Y0 + hp.Bounds.Y1) / 2
		found := false
		for _, lp := range lo {
			if lp.Bounds.Contains(cx, cy) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("peak at α=4 (%+v) not inside any α=1 peak", hp.Bounds)
		}
	}
}

func TestRasterizeDimensionsAndOwnership(t *testing.T) {
	st := paperFigure4Tree()
	l := NewLayout(st, LayoutOptions{})
	hm := l.Rasterize(64, 48)
	if hm.W != 64 || hm.H != 48 {
		t.Fatalf("raster dims %dx%d", hm.W, hm.H)
	}
	owned := 0
	for y := 0; y < hm.H; y++ {
		for x := 0; x < hm.W; x++ {
			if n := hm.NodeAt(x, y); n >= 0 {
				owned++
				if hm.At(x, y) != st.Scalar[n] {
					t.Fatalf("cell (%d,%d) height %g != node %d scalar %g",
						x, y, hm.At(x, y), n, st.Scalar[n])
				}
			}
		}
	}
	if owned == 0 {
		t.Fatal("no cells owned by any boundary")
	}
}

func TestRasterizeEveryNodeVisible(t *testing.T) {
	// Every super node must own at least one cell at a reasonable
	// resolution (the layout's MinShare guarantees nonzero extent).
	st, _ := randomSuperTree(4, 40, 5)
	l := NewLayout(st, LayoutOptions{})
	hm := l.Rasterize(256, 256)
	seen := make([]bool, st.Len())
	for _, n := range hm.Node {
		if n >= 0 {
			seen[n] = true
		}
	}
	for s, ok := range seen {
		leaf := true
		for _, p := range st.Parent {
			if int(p) == s {
				leaf = false
			}
		}
		// Interior nodes can be fully covered by children; require
		// visibility only for leaves.
		if leaf && !ok {
			t.Errorf("leaf super node %d owns no cells", s)
		}
	}
}

func TestRasterizePanicsOnBadSize(t *testing.T) {
	st := paperFigure4Tree()
	l := NewLayout(st, LayoutOptions{})
	defer func() {
		if recover() == nil {
			t.Error("want panic for zero raster size")
		}
	}()
	l.Rasterize(0, 10)
}

func TestHeightmapMinMax(t *testing.T) {
	st := paperFigure4Tree()
	l := NewLayout(st, LayoutOptions{})
	hm := l.Rasterize(64, 64)
	lo, hi := hm.MinMax()
	if lo >= hi {
		t.Errorf("MinMax = %g, %g", lo, hi)
	}
	if hi != 7 { // max scalar in the example
		t.Errorf("max height = %g, want 7", hi)
	}
}

func TestColormapEndpoints(t *testing.T) {
	blue := Colormap(0)
	red := Colormap(1)
	if blue.B <= blue.R {
		t.Errorf("Colormap(0) = %+v, want blue-dominant", blue)
	}
	if red.R <= red.B {
		t.Errorf("Colormap(1) = %+v, want red-dominant", red)
	}
	mid := Colormap(0.5)
	if mid.G < 100 {
		t.Errorf("Colormap(0.5) = %+v, want green-ish", mid)
	}
}

func TestColormapClampsAndNaN(t *testing.T) {
	if Colormap(-5) != Colormap(0) {
		t.Error("negative t should clamp to 0")
	}
	if Colormap(7) != Colormap(1) {
		t.Error("t>1 should clamp to 1")
	}
	if Colormap(math.NaN()) != Colormap(0) {
		t.Error("NaN should map like 0")
	}
}

func TestNormalize(t *testing.T) {
	out := Normalize([]float64{2, 4, 6})
	want := []float64{0, 0.5, 1}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-12 {
			t.Errorf("Normalize[%d] = %g, want %g", i, out[i], want[i])
		}
	}
	for _, v := range Normalize([]float64{3, 3}) {
		if v != 0.5 {
			t.Errorf("constant Normalize = %g, want 0.5", v)
		}
	}
	if len(Normalize(nil)) != 0 {
		t.Error("Normalize(nil) should be empty")
	}
}

func TestNodeIntensityMeansMembers(t *testing.T) {
	st := paperFigure4Tree()
	colors := make([]float64, st.NumItems())
	for i := range colors {
		colors[i] = float64(i)
	}
	intensity := NodeIntensity(st, colors)
	if len(intensity) != st.Len() {
		t.Fatalf("intensity len = %d, want %d", len(intensity), st.Len())
	}
	for _, v := range intensity {
		if v < 0 || v > 1 {
			t.Errorf("intensity %g outside [0,1]", v)
		}
	}
}

func TestNodeCategoricalMajority(t *testing.T) {
	st := paperFigure4Tree()
	cat := make([]int, st.NumItems())
	for i := range cat {
		cat[i] = 1
	}
	out := NodeCategorical(st, cat)
	for s, c := range out {
		if c != 1 {
			t.Errorf("node %d category %d, want 1", s, c)
		}
	}
}

func TestCategoryPalette(t *testing.T) {
	if CategoryPalette(-1).R != 0 {
		t.Error("negative category should be black")
	}
	if CategoryPalette(0) == CategoryPalette(1) {
		t.Error("adjacent categories share a color")
	}
	if CategoryPalette(8) != CategoryPalette(0) {
		t.Error("palette should wrap at its length")
	}
}

func TestSplitSpanProportions(t *testing.T) {
	slots := splitSpan(0, 10, []float64{1, 3}, 0.001)
	if math.Abs(slots[0][1]-slots[0][0]-2.5) > 1e-9 {
		t.Errorf("first slot width = %g, want 2.5", slots[0][1]-slots[0][0])
	}
	if math.Abs(slots[1][1]-10) > 1e-9 {
		t.Errorf("last slot must end at 10, got %g", slots[1][1])
	}
}

func TestSplitSpanZeroShares(t *testing.T) {
	slots := splitSpan(0, 1, []float64{0, 0}, 0.01)
	if math.Abs(slots[0][1]-0.5) > 1e-9 {
		t.Errorf("zero shares should split evenly: %v", slots)
	}
}

func TestSplitSpanMinShareFloor(t *testing.T) {
	slots := splitSpan(0, 1, []float64{1000, 1}, 0.05)
	w := slots[1][1] - slots[1][0]
	if w < 0.04 {
		t.Errorf("tiny share slot width %g below floor", w)
	}
}
