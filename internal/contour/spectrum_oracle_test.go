package contour

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/oracle"
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
	for s := int32(0); s < int32(n); s++ {
		items[idx[st.Scalar[s]]] += len(st.Members(s))
	}
	for i := len(levels) - 2; i >= 0; i-- {
		items[i] += items[i+1]
	}
	return &Spectrum{Levels: levels, Components: comps, Items: items}
}

// sweepOrderSpectrum is the NewSpectrum that ranked every super node
// by core.SweepOrder, kept as a bit-level oracle for the level ranking
// that replaced it: walking the sweep order backwards visits the
// scalars in increasing order and each run of equal ones highest ID
// first, so the run's last write leaves the lowest ID's value.
func sweepOrderSpectrum(st *core.SuperTree) *Spectrum {
	n := st.Len()
	order := core.SweepOrder(st.Scalar)
	idx := make([]int32, n)
	levels := make([]float64, 0, n)
	for i := n - 1; i >= 0; i-- {
		s := order[i]
		v := st.Scalar[s]
		if len(levels) == 0 || v != levels[len(levels)-1] {
			levels = append(levels, v)
		}
		levels[len(levels)-1] = v
		idx[s] = int32(len(levels) - 1)
	}
	diff := make([]int, len(levels)+1)
	for s := 0; s < n; s++ {
		lo := int32(0)
		if p := st.Parent[s]; p >= 0 {
			lo = idx[p] + 1
		}
		diff[lo]++
		diff[idx[s]+1]--
	}
	comps := make([]int, len(levels))
	run := 0
	for i := range levels {
		run += diff[i]
		comps[i] = run
	}
	items := make([]int, len(levels))
	for s := int32(0); s < int32(n); s++ {
		items[idx[s]] += len(st.Members(s))
	}
	for i := len(levels) - 2; i >= 0; i-- {
		items[i] += items[i+1]
	}
	return &Spectrum{Levels: levels, Components: comps, Items: items}
}

// requireSameSpectrum fails unless got and want have bitwise equal
// levels (sign of zero included) and equal curves.
func requireSameSpectrum(t *testing.T, got, want *Spectrum, label string) {
	t.Helper()
	if len(got.Levels) != len(want.Levels) {
		t.Fatalf("%s: %d levels, oracle %d", label, len(got.Levels), len(want.Levels))
	}
	for i, v := range got.Levels {
		if math.Float64bits(v) != math.Float64bits(want.Levels[i]) {
			t.Fatalf("%s: level %d is %g (signbit %v), oracle %g (signbit %v)",
				label, i, v, math.Signbit(v), want.Levels[i], math.Signbit(want.Levels[i]))
		}
	}
	if !slices.Equal(got.Components, want.Components) || !slices.Equal(got.Items, want.Items) {
		t.Fatalf("%s: curves %v %v, oracle %v %v", label, got.Components, got.Items, want.Components, want.Items)
	}
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
// and against the map-based and sweep-order oracles bit for bit.
func requireSpectrumMatchesDefinition(t *testing.T, st *core.SuperTree, values []float64, components func(alpha float64) int, rng *rand.Rand, label string) {
	t.Helper()
	sp := NewSpectrum(st)
	requireSameSpectrum(t, sp, mapSpectrum(st), label+", map oracle")
	requireSameSpectrum(t, sp, sweepOrderSpectrum(st), label+", sweep-order oracle")
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
			return len(oracle.Components(vf.G, vf.Values, false, alpha))
		}, rng, "vertex")

		ef := core.MustEdgeField(g, randomOracleField(rng, g.NumEdges()))
		requireSpectrumMatchesDefinition(t, core.EdgeSuperTree(ef), ef.Values, func(alpha float64) int {
			return len(oracle.Components(ef.G, ef.Values, true, alpha))
		}, rng, "edge")
	}
}

// spectrumPool is the value pool of FuzzSpectrumLevels' one-byte
// vertices: ties, both zeros, both infinities and values a hair apart.
var spectrumPool = [16]float64{
	math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1, 2, -3.5, 0.25,
	math.Nextafter(0.25, 1), -math.MaxFloat64, math.MaxFloat64, 1.0 / 3, 2.0 / 3, -1,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
}

// FuzzSpectrumLevels checks NewSpectrum's level ranking against the
// sweep-order oracle bit for bit, on two vertex fields per input. In
// the pooled field each byte adds a vertex whose low four bits pick
// its value from spectrumPool and whose high four bits h link it to
// vertex i-h (h = 0 leaves it unlinked). In the raw field each 8-byte
// word is a value (NaN skipped) on a path, followed by its truncation,
// which ties with its neighbours' more often.
func FuzzSpectrumLevels(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x11, 0x12, 0x01, 0x23, 0x14, 0x34, 0x05})
	f.Add([]byte{0x02, 0x13, 0x10, 0x21, 0x0f, 0x1e, 0x2d, 0x3c, 0x4b, 0x5a})
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil,
		math.Float64bits(math.Copysign(0, -1))), math.Float64bits(2.5)))
	f.Fuzz(func(t *testing.T, data []byte) {
		b := graph.NewBuilder(len(data))
		pooled := make([]float64, len(data))
		for i, c := range data {
			pooled[i] = spectrumPool[c&15]
			if h := int(c >> 4); h > 0 && h <= i {
				b.AddEdge(int32(i), int32(i-h))
			}
		}
		st := core.VertexSuperTree(core.MustVertexField(b.Build(), pooled))
		requireSameSpectrum(t, NewSpectrum(st), sweepOrderSpectrum(st), "pooled")

		var raw []float64
		for ; len(data) >= 8; data = data[8:] {
			if v := math.Float64frombits(binary.LittleEndian.Uint64(data)); !math.IsNaN(v) {
				raw = append(raw, v, math.Trunc(v))
			}
		}
		path := graph.NewBuilder(len(raw))
		for i := 1; i < len(raw); i++ {
			path.AddEdge(int32(i-1), int32(i))
		}
		st = core.VertexSuperTree(core.MustVertexField(path.Build(), raw))
		requireSameSpectrum(t, NewSpectrum(st), sweepOrderSpectrum(st), "raw")
	})
}
