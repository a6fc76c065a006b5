package scalarfield_test

import (
	"math"
	"runtime"
	"testing"

	scalarfield "repro"
	"repro/internal/datasets"
	"repro/internal/par"
	"repro/internal/query"
)

// bitDiffs counts the positions where a and b differ in their bits.
func bitDiffs(a, b []float64) int {
	if len(a) != len(b) {
		return max(len(a), len(b))
	}
	n := 0
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			n++
		}
	}
	return n
}

// analyzedFields runs Analyze with default options for every
// registered measure at the given GOMAXPROCS and returns the fields.
func analyzedFields(t *testing.T, g *scalarfield.Graph, procs int) map[string][]float64 {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	a := scalarfield.NewAnalyzer()
	out := map[string][]float64{}
	for _, name := range scalarfield.Measures() {
		res, err := a.AnalyzeAll(g, name, scalarfield.AnalyzeOptions{})
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: Analyze(%q): %v", procs, name, err)
		}
		out[name] = res.Values
	}
	return out
}

// TestMeasureFieldsIdenticalAcrossEntryPoints pins that a measure name
// means one field: on a graph above par.SerialCutoff, the library's
// Analyze and the serving engine's snapshot return the same bits for
// every registered measure, and Analyze does so at GOMAXPROCS 1 and
// 4. The edgebetweenness case once differed in most edges, when the
// library path ran a per-source kernel and the engine the batched one.
func TestMeasureFieldsIdenticalAcrossEntryPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes every registered measure on a 5k-vertex graph")
	}
	g, err := datasets.Generate("GrQc", 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() <= par.SerialCutoff {
		t.Fatalf("%d vertices: the graph must exceed par.SerialCutoff %d", g.NumVertices(), par.SerialCutoff)
	}
	one := analyzedFields(t, g, 1)
	four := analyzedFields(t, g, 4)
	e := query.NewEngine(query.Options{})
	e.RegisterDataset("GrQc", g)
	for _, name := range scalarfield.Measures() {
		want := one[name]
		if d := bitDiffs(want, four[name]); d != 0 {
			t.Errorf("%s: Analyze at GOMAXPROCS 4 differs from GOMAXPROCS 1 in %d of %d values", name, d, len(want))
		}
		snap, err := e.Snapshot(query.Key{Dataset: "GrQc", Measure: name})
		if err != nil {
			t.Fatalf("engine snapshot %q: %v", name, err)
		}
		if d := bitDiffs(want, snap.Values); d != 0 {
			t.Errorf("%s: engine snapshot differs from Analyze in %d of %d values", name, d, len(want))
		}
	}
}
