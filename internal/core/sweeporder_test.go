package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
)

func randomFieldFor(seed int64, n int, p float64, distinct bool) *VertexField {
	rng := rand.New(rand.NewSource(seed))
	// Sample the expected edge count directly instead of flipping a
	// coin per pair, so large sparse fixtures stay O(|E|).
	m := int(p * float64(n) * float64(n-1) / 2)
	edges := make([]graph.Edge, 0, m)
	for len(edges) < m {
		u, v := rng.Int31n(int32(n)), rng.Int31n(int32(n))
		if u != v {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	g := graph.FromEdges(n, edges)
	values := make([]float64, n)
	for i := range values {
		if distinct {
			values[i] = rng.Float64()
		} else {
			values[i] = float64(rng.Intn(6))
		}
	}
	return MustVertexField(g, values)
}

// specialValues are the floats whose sweep keys sit at the edges of
// the key space or share a numeric value with another bit pattern.
var specialValues = []float64{
	math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	-math.SmallestNonzeroFloat64, 1, -1, 0.5, -0.5,
}

// requireSweepOrder asserts that SweepOrder, a pooled TreeBuilder and
// the radix sort alone all return the sweepCmp order of values, and,
// when the field is integer with a small span, that the counting sort
// does too.
func requireSweepOrder(t *testing.T, b *TreeBuilder, values []float64, label string) {
	t.Helper()
	want := oracleSweepOrder(values)
	if got := SweepOrder(values); !slices.Equal(want, got) {
		t.Fatalf("%s: SweepOrder diverges from the comparison sort", label)
	}
	if got := b.sweepOrderInto(values); !slices.Equal(want, got) {
		t.Fatalf("%s: pooled sweep order diverges from the comparison sort", label)
	}
	got := make([]int32, len(values))
	var r radixSorter
	r.sort(values, got)
	if !slices.Equal(want, got) {
		t.Fatalf("%s: radix order diverges from the comparison sort", label)
	}
	if _, ok := tryCountingOrder(values, got, nil); ok && !slices.Equal(want, got) {
		t.Fatalf("%s: counting order diverges from the comparison sort", label)
	}
}

func TestSweepOrderMatchesOracle(t *testing.T) {
	// Integer fields take the counting sort, fractional ones the radix
	// sort; both must match the comparison sort bit for bit. Heavy ties
	// check the ID tie-break, the special values the key mapping.
	var b TreeBuilder
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 100, 5000, 20000} {
		for _, offset := range []float64{0, 0.5} {
			values := make([]float64, n)
			for i := range values {
				values[i] = float64(rng.Intn(7)) + offset
			}
			requireSweepOrder(t, &b, values, "ties")
		}
		values := make([]float64, n)
		for i := range values {
			values[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
		requireSweepOrder(t, &b, values, "wide")
		for i := range values {
			values[i] = specialValues[rng.Intn(len(specialValues))]
		}
		requireSweepOrder(t, &b, values, "special")
	}
}

func TestSweepKeyTiesSignedZeros(t *testing.T) {
	if sweepKey(math.Copysign(0, -1)) != sweepKey(0) {
		t.Fatal("-0 and +0 map to different sweep keys")
	}
	for i := 1; i < len(specialValues); i++ {
		a, b := specialValues[i-1], specialValues[i]
		if (a > b) != (sweepKey(a) < sweepKey(b)) {
			t.Fatalf("keys of %g and %g do not reverse their order", a, b)
		}
	}
}

func TestBuildVertexTreeSerialVsParallelDefault(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		for _, distinct := range []bool{true, false} {
			f := randomFieldFor(seed, 200, 0.03, distinct)
			a := BuildVertexTreeSerial(f)
			b := BuildVertexTree(f)
			if !reflect.DeepEqual(a.Parent, b.Parent) {
				t.Fatalf("seed %d distinct=%v: default tree differs", seed, distinct)
			}
			if !reflect.DeepEqual(a.Order, b.Order) {
				t.Fatalf("seed %d distinct=%v: sweep orders differ", seed, distinct)
			}
		}
	}
}

func TestBuildVertexTreeParallelDefaultLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large input")
	}
	// A large fractional field through the radix sort: the super tree
	// must satisfy every invariant and match the comparison-sort tree.
	f := randomFieldFor(1, 6000, 0.001, true)
	tree := BuildVertexTree(f)
	st := Postprocess(tree)
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	ref := BuildVertexTreeSerial(f)
	if !reflect.DeepEqual(tree.Parent, ref.Parent) {
		t.Fatal("radix-sorted tree differs from the comparison-sort tree")
	}
}

// BenchmarkAblationSweepOrder times the radix sort against the
// comparison sort on a random fractional field of 1M items.
func BenchmarkAblationSweepOrder(b *testing.B) {
	f := randomFieldFor(3, 1<<20, 0, true)
	b.Run("radix", func(b *testing.B) {
		var r radixSorter
		order := make([]int32, len(f.Values))
		for i := 0; i < b.N; i++ {
			r.sort(f.Values, order)
		}
	})
	b.Run("comparison", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			oracleSweepOrder(f.Values)
		}
	})
}
