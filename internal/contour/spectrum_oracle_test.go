package contour

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// mapSpectrum is the map-based NewSpectrum the sweep-order ranking
// replaced, kept as a byte-level oracle: it collects the distinct
// scalars first-seen by super-node ID, sorts them and looks each
// scalar's level up in a map, so ±0 share the lowest-ID node's zero.
func mapSpectrum(st *core.SuperTree) *Spectrum {
	n := st.Len()
	levels := make([]float64, 0, n)
	seen := make(map[float64]struct{}, n)
	for s := 0; s < n; s++ {
		v := st.Scalar[s]
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
			levels = append(levels, v)
		}
	}
	sort.Float64s(levels)
	idx := make(map[float64]int, len(levels))
	for i, v := range levels {
		idx[v] = i
	}
	diff := make([]int, len(levels)+1)
	for s := 0; s < n; s++ {
		lo := 0
		if p := st.Parent[s]; p >= 0 {
			lo = idx[st.Scalar[p]] + 1
		}
		diff[lo]++
		diff[idx[st.Scalar[s]]+1]--
	}
	comps := make([]int, len(levels))
	run := 0
	for i := range levels {
		run += diff[i]
		comps[i] = run
	}
	items := make([]int, len(levels))
	for s := 0; s < n; s++ {
		items[idx[st.Scalar[s]]] += len(st.Members[s])
	}
	for i := len(levels) - 2; i >= 0; i-- {
		items[i] += items[i+1]
	}
	return &Spectrum{Levels: levels, Components: comps, Items: items}
}

// oracleValues is the pool random fields draw from: ties, both zeros,
// both infinities and values a hair apart.
var oracleValues = []float64{
	math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1, 1, 2, -3.5,
	0.25, math.Nextafter(0.25, 1), -math.MaxFloat64, math.MaxFloat64,
}

// randomOracleGraph returns a small graph with isolated vertices and,
// usually, several connected parts.
func randomOracleGraph(rng *rand.Rand) *graph.Graph {
	n := rng.Intn(16)
	var edges []graph.Edge
	if n > 1 {
		for m := rng.Intn(2 * n); m > 0; m-- {
			u, v := rng.Int31n(int32(n)), rng.Int31n(int32(n))
			if u != v {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
	}
	return graph.FromEdges(n, edges)
}

// randomOracleField draws n values: about one in three is one of the
// fractions 0, 1/3, 2/3, 1, the rest come from oracleValues.
func randomOracleField(rng *rand.Rand, n int) []float64 {
	values := make([]float64, n)
	for i := range values {
		if rng.Intn(3) == 0 {
			values[i] = float64(rng.Intn(4)) / 3
		} else {
			values[i] = oracleValues[rng.Intn(len(oracleValues))]
		}
	}
	return values
}

// requireSpectrumMatchesDefinition checks sp against Definition 1 by
// brute force at every level and at probes between and beyond them,
// and against the map-based oracle byte for byte.
func requireSpectrumMatchesDefinition(t *testing.T, st *core.SuperTree, values []float64, components func(alpha float64) int, rng *rand.Rand, label string) {
	t.Helper()
	sp := NewSpectrum(st)
	ref := mapSpectrum(st)
	if len(sp.Levels) != len(ref.Levels) {
		t.Fatalf("%s: %d levels, map oracle %d", label, len(sp.Levels), len(ref.Levels))
	}
	for i, v := range sp.Levels {
		if math.Float64bits(v) != math.Float64bits(ref.Levels[i]) {
			t.Fatalf("%s: level %d is %g (signbit %v), map oracle %g (signbit %v)",
				label, i, v, math.Signbit(v), ref.Levels[i], math.Signbit(ref.Levels[i]))
		}
	}
	if !slices.Equal(sp.Components, ref.Components) || !slices.Equal(sp.Items, ref.Items) {
		t.Fatalf("%s: curves %v %v, map oracle %v %v", label, sp.Components, sp.Items, ref.Components, ref.Items)
	}
	survivors := func(alpha float64) int {
		c := 0
		for _, v := range values {
			if v >= alpha {
				c++
			}
		}
		return c
	}
	for i, level := range sp.Levels {
		if want := components(level); sp.Components[i] != want {
			t.Fatalf("%s: Components[%d] at α=%g is %d, brute force %d", label, i, level, sp.Components[i], want)
		}
		if want := survivors(level); sp.Items[i] != want {
			t.Fatalf("%s: Items[%d] at α=%g is %d, brute force %d", label, i, level, sp.Items[i], want)
		}
	}
	probes := []float64{math.Inf(-1), math.Inf(1), rng.NormFloat64() * 4}
	for _, level := range sp.Levels {
		probes = append(probes, math.Nextafter(level, math.Inf(-1)), math.Nextafter(level, math.Inf(1)))
	}
	for i := 0; i+1 < len(sp.Levels); i++ {
		lo, hi := sp.Levels[i], sp.Levels[i+1]
		if mid := lo + (hi-lo)*rng.Float64(); mid > lo && mid < hi {
			probes = append(probes, mid)
		}
	}
	for _, alpha := range probes {
		if got, want := sp.ComponentsAt(alpha), components(alpha); got != want {
			t.Fatalf("%s: ComponentsAt(%g) = %d, brute force %d", label, alpha, got, want)
		}
		if got, want := sp.ItemsAt(alpha), survivors(alpha); got != want {
			t.Fatalf("%s: ItemsAt(%g) = %d, brute force %d", label, alpha, got, want)
		}
	}
}

// TestSpectrumMatchesDefinition is the definition-level oracle for the
// contour spectrum, over random vertex and edge fields.
func TestSpectrumMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 400; trial++ {
		g := randomOracleGraph(rng)

		vf := core.MustVertexField(g, randomOracleField(rng, g.NumVertices()))
		requireSpectrumMatchesDefinition(t, core.VertexSuperTree(vf), vf.Values, func(alpha float64) int {
			return len(core.BruteForceComponents(vf, alpha))
		}, rng, "vertex")

		ef := core.MustEdgeField(g, randomOracleField(rng, g.NumEdges()))
		requireSpectrumMatchesDefinition(t, core.EdgeSuperTree(ef), ef.Values, func(alpha float64) int {
			return len(core.BruteForceEdgeComponents(ef, alpha))
		}, rng, "edge")
	}
}
