package measures

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/par"
)

// firstBitDiff returns the first index where a and b differ in their
// float64 bits (-1 when they are bitwise equal), or len(a) when the
// lengths differ.
func firstBitDiff(a, b []float64) int {
	if len(a) != len(b) {
		return len(a)
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// distNames lists the distance measures in distSel field order.
var distNames = [4]string{"closeness", "harmonic", "eccentricity", "khop"}

// subsetSel returns the distance selection and names of subset mask
// (bit i selects distNames[i]).
func subsetSel(mask int) (distSel, []string) {
	sel := distSel{close: mask&1 != 0, harm: mask&2 != 0, ecc: mask&4 != 0, khop: mask&8 != 0}
	var names []string
	for i, name := range distNames {
		if mask&(1<<i) != 0 {
			names = append(names, name)
		}
	}
	return sel, names
}

func (f distFields) byName(name string) []float64 {
	return map[string][]float64{"closeness": f.clo, "harmonic": f.har, "eccentricity": f.ecc, "khop": f.khop}[name]
}

// TestSharedPassMatchesStandaloneFields is the shared-pass oracle:
// every pairing of a Brandes measure with a subset of the distance
// measures yields, through brandesFields at every worker count and
// through SharedDistanceFields, fields bitwise equal to the registry
// computing each measure alone. The graphs cover both regimes of
// betweenness-sampled (n > 512 samples, n <= 512 falls back to exact
// and MS-BFS runs no batch) with isolated vertices, some of them
// drawn pivots, which must score 0 in every field, and graphs with no
// edges or no vertices.
func TestSharedPassMatchesStandaloneFields(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"sampled", disconnectedGraph(71, 1500)},
		{"exact-fallback", disconnectedGraph(72, 400)},
		{"isolated", graph.NewBuilder(17).Build()},
		{"empty", graph.NewBuilder(0).Build()},
	} {
		g := tc.g
		n := g.NumVertices()
		want := map[string][]float64{}
		for _, name := range append(distNames[:], "betweenness", "betweenness-sampled") {
			spec, _ := Lookup(name)
			want[name] = spec.Compute(g)
		}
		var isolated, isolatedPivots []int32
		for v := int32(0); v < int32(n); v++ {
			if g.Degree(v) == 0 {
				isolated = append(isolated, v)
			}
		}
		if n > betweennessSamples {
			for _, v := range sampleSources(n, betweennessSamples, betweennessSeed) {
				if g.Degree(v) == 0 {
					isolatedPivots = append(isolatedPivots, v)
				}
			}
			if len(isolatedPivots) == 0 {
				t.Fatalf("%s: no isolated pivot drawn; the case does not cover one", tc.name)
			}
		}
		for _, brandes := range []string{"betweenness", "betweenness-sampled"} {
			for mask := 0; mask < 16; mask++ {
				sel, names := subsetSel(mask)
				for w := 1; w <= 8; w++ {
					bc, dist := brandesFields(g, brandesMeasures[brandes](n), betweennessSeed, sel, w)
					if i := firstBitDiff(bc, want[brandes]); i >= 0 {
						t.Fatalf("%s: %s with %v, workers=%d: bc[%d] differs from the registry field", tc.name, brandes, names, w, i)
					}
					for _, name := range names {
						if i := firstBitDiff(dist.byName(name), want[name]); i >= 0 {
							t.Fatalf("%s: %s with %v, workers=%d: %s[%d] differs from the registry field", tc.name, brandes, names, w, name, i)
						}
					}
				}
				fields, ok := SharedDistanceFields(g, append([]string{brandes}, names...))
				if !ok {
					t.Fatalf("%s: the shared pass refused %s with %v", tc.name, brandes, names)
				}
				for name, f := range fields {
					if i := firstBitDiff(f, want[name]); i >= 0 {
						t.Fatalf("%s: SharedDistanceFields(%s, %v): %s[%d] differs from the registry field", tc.name, brandes, names, name, i)
					}
				}
			}
		}
		for _, name := range append(distNames[:], "betweenness", "betweenness-sampled") {
			for _, v := range isolated {
				if want[name][v] != 0 {
					t.Fatalf("%s: isolated vertex %d scores %g in %s", tc.name, v, want[name][v], name)
				}
			}
		}
	}
}

// TestSharedPassAboveSerialCutoff runs the four-field pass on a graph
// above par.SerialCutoff, where the exported kernels themselves may
// pick several workers: with sampled pivots through
// SharedDistanceFields, and with exact betweenness, where MS-BFS runs
// no batch, at several worker counts.
func TestSharedPassAboveSerialCutoff(t *testing.T) {
	g := disconnectedGraph(73, par.SerialCutoff+600)
	all := append(distNames[:], "betweenness-sampled")
	fields, ok := SharedDistanceFields(g, all)
	if !ok {
		t.Fatal("the shared pass refused betweenness-sampled with every distance measure")
	}
	for _, name := range all {
		spec, _ := Lookup(name)
		if i := firstBitDiff(fields[name], spec.Compute(g)); i >= 0 {
			t.Fatalf("%s[%d] differs from the registry field", name, i)
		}
	}
	sel, _ := subsetSel(15)
	for _, w := range []int{1, 3, 8} {
		bc, dist := brandesFields(g, g.NumVertices(), betweennessSeed, sel, w) // exact: no MS-BFS batch
		if i := firstBitDiff(bc, BetweennessCentrality(g)); i >= 0 {
			t.Fatalf("workers=%d: exact bc[%d] differs from BetweennessCentrality", w, i)
		}
		for _, name := range distNames {
			if i := firstBitDiff(dist.byName(name), fields[name]); i >= 0 {
				t.Fatalf("workers=%d: %s[%d] from the exact pass differs", w, name, i)
			}
		}
	}
}

// TestSharedPassRefusals pins what one shared pass cannot hold: two
// Brandes measures, an edge measure, or a measure of neither kind.
func TestSharedPassRefusals(t *testing.T) {
	g := randomGraph(74, 120, 2.0)
	for _, names := range [][]string{
		{"betweenness", "betweenness-sampled"},
		{"betweenness-sampled", "betweenness-sampled"},
		{"betweenness", "closeness", "betweenness-sampled"},
		{"betweenness-sampled", "edgebetweenness"},
		{"closeness", "edgebetweenness"},
		{"khop", "ktruss"},
		{"betweenness", "kcore"},
	} {
		if SharedPass(names...) {
			t.Fatalf("SharedPass accepts %v", names)
		}
		if _, ok := SharedDistanceFields(g, names); ok {
			t.Fatalf("SharedDistanceFields computed %v", names)
		}
	}
}
