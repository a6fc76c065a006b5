package scalarfield

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/datasets"
)

// TestAnalyzerMatchesAnalyze reuses one Analyzer across every
// registered measure, twice over; each result must match the one-shot
// Analyze exactly — pooling may never change output.
func TestAnalyzerMatchesAnalyze(t *testing.T) {
	g := demoGraph()
	a := NewAnalyzer()
	for round := 0; round < 2; round++ {
		for _, name := range Measures() {
			want, err := Analyze(g, name, AnalyzeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := a.Analyze(g, name, AnalyzeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Tree, got.Tree) {
				t.Fatalf("round %d measure %q: pooled Analyzer diverges from Analyze", round, name)
			}
		}
	}
}

// TestAnalyzerResultsSurviveReuse pins the ownership contract: a
// Terrain from one Analyze call must stay intact after the pool is
// reused for another.
func TestAnalyzerResultsSurviveReuse(t *testing.T) {
	g := demoGraph()
	a := NewAnalyzer()
	first, err := a.Analyze(g, "kcore", AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	parent := append([]int32(nil), first.Tree.Parent...)
	scalar := append([]float64(nil), first.Tree.Scalar...)

	if _, err := a.Analyze(g, "degree", AnalyzeOptions{}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parent, first.Tree.Parent) || !reflect.DeepEqual(scalar, first.Tree.Scalar) {
		t.Fatal("earlier Terrain corrupted by Analyzer reuse")
	}
}

// TestAnalyzeAllSharedDistanceTraversal pins the multi-field fast
// path: a pairing that joins one shared pass (two distance measures,
// or betweenness-sampled with closeness, in either role) computes both
// fields from one traversal per source, and its fields are
// bit-identical to the separately computed registry measures — so
// snapshot consumers cannot tell which path produced them. The graph
// above 512 vertices runs betweenness-sampled on sampled pivots, with
// MS-BFS over the rest; on demoGraph the pivots cover every vertex.
func TestAnalyzeAllSharedDistanceTraversal(t *testing.T) {
	big, err := datasets.Generate("GrQc", 0.25, 42)
	if err != nil {
		t.Fatal(err)
	}
	if big.NumVertices() <= 512 {
		t.Fatalf("GrQc at scale 0.25 has %d vertices; the sampled regime needs more than 512", big.NumVertices())
	}
	a := NewAnalyzer()
	for _, g := range []*Graph{demoGraph(), big} {
		for _, pair := range [][2]string{
			{"closeness", "harmonic"}, {"harmonic", "closeness"},
			{"betweenness-sampled", "closeness"}, {"closeness", "betweenness-sampled"},
		} {
			res, err := a.AnalyzeAll(g, pair[0], AnalyzeOptions{ColorBy: pair[1]})
			if err != nil {
				t.Fatal(err)
			}
			wantHeight, _, err := MeasureValues(g, pair[0], false)
			if err != nil {
				t.Fatal(err)
			}
			wantColor, _, err := MeasureValues(g, pair[1], false)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(res.Values, wantHeight) {
				t.Fatalf("|V|=%d %s/%s: shared-pass height field diverges from the registry measure", g.NumVertices(), pair[0], pair[1])
			}
			if !sameBits(res.ColorValues, wantColor) {
				t.Fatalf("|V|=%d %s/%s: shared-pass color field diverges from the registry measure", g.NumVertices(), pair[0], pair[1])
			}
		}
	}
	// The fast path must not change the non-distance pairings either.
	res, err := a.AnalyzeAll(demoGraph(), "kcore", AnalyzeOptions{ColorBy: "closeness"})
	if err != nil {
		t.Fatal(err)
	}
	if res.ColorValues == nil || res.Values == nil {
		t.Fatal("mixed pairing lost a field")
	}
}

// sameBits reports whether two fields are bitwise equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// mallocsOf counts heap allocations performed by fn on this goroutine.
func mallocsOf(fn func()) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestAnalyzerAllocatesLessThanAnalyze is the allocation-regression
// guard on the pooled public API: a warm Analyzer run must allocate
// strictly less than the one-shot Analyze on the same request, since
// the sweep order, union-find state, and raw tree arrays come from the
// pool instead of the heap.
func TestAnalyzerAllocatesLessThanAnalyze(t *testing.T) {
	g := demoGraph()
	a := NewAnalyzer()
	if _, err := a.Analyze(g, "kcore", AnalyzeOptions{}); err != nil {
		t.Fatal(err) // warm up the pool
	}

	var fresh, pooled uint64
	// Minimum over a few runs damps GC and timer noise.
	for i := 0; i < 3; i++ {
		f := mallocsOf(func() { Analyze(g, "kcore", AnalyzeOptions{}) })
		p := mallocsOf(func() { a.Analyze(g, "kcore", AnalyzeOptions{}) })
		if i == 0 || f < fresh {
			fresh = f
		}
		if i == 0 || p < pooled {
			pooled = p
		}
	}
	if pooled >= fresh {
		t.Fatalf("warm Analyzer allocates %d objects, one-shot Analyze %d; pooling buys nothing", pooled, fresh)
	}
}
