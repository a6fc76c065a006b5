package scalarfield

import (
	"reflect"
	"runtime"
	"testing"
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
// path: a closeness-height, harmonic-color analysis computes both
// fields from one MS-BFS traversal, and its fields (and the fields of
// the swapped pairing) are bit-identical to the separately computed
// registry measures — so snapshot consumers cannot tell which path
// produced them.
func TestAnalyzeAllSharedDistanceTraversal(t *testing.T) {
	g := demoGraph()
	a := NewAnalyzer()
	for _, pair := range [][2]string{{"closeness", "harmonic"}, {"harmonic", "closeness"}} {
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
		if !reflect.DeepEqual(res.Values, wantHeight) {
			t.Fatalf("%s/%s: shared-pass height field diverges from the registry measure", pair[0], pair[1])
		}
		if !reflect.DeepEqual(res.ColorValues, wantColor) {
			t.Fatalf("%s/%s: shared-pass color field diverges from the registry measure", pair[0], pair[1])
		}
	}
	// The fast path must not change the non-distance pairings either.
	res, err := a.AnalyzeAll(g, "kcore", AnalyzeOptions{ColorBy: "closeness"})
	if err != nil {
		t.Fatal(err)
	}
	if res.ColorValues == nil || res.Values == nil {
		t.Fatal("mixed pairing lost a field")
	}
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
