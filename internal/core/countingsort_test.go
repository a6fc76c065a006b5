package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/measures"
)

// requireCountingOrder asserts that the counting path accepts values
// and reproduces the comparison-sort sweep order bit for bit.
func requireCountingOrder(t *testing.T, values []float64, label string) {
	t.Helper()
	order := make([]int32, len(values))
	if _, ok := tryCountingOrder(values, order, nil); !ok {
		t.Fatalf("%s: counting path rejected an eligible field", label)
	}
	if want := oracleSweepOrder(values); !reflect.DeepEqual(want, order) {
		t.Fatalf("%s: counting order diverges from comparison sort", label)
	}
}

func TestCountingOrderMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := map[string][]float64{
		"single":       {7},
		"all-tied":     {3, 3, 3, 3, 3},
		"two-levels":   {1, 0, 1, 0, 1, 0, 0},
		"negative":     {-5, 3, -5, 0, 2, -1, 3},
		"single-level": make([]float64, 100),
	}
	small := make([]float64, 500)
	for i := range small {
		small[i] = float64(rng.Intn(8))
	}
	cases["random-small-range"] = small
	wide := make([]float64, 5000)
	for i := range wide {
		wide[i] = float64(rng.Intn(4000) - 2000)
	}
	cases["random-wide-range"] = wide
	for label, values := range cases {
		requireCountingOrder(t, values, label)
	}
}

func TestCountingOrderRejectsIneligibleFields(t *testing.T) {
	cases := map[string][]float64{
		"empty":      {},
		"fractional": {1, 2, 2.5, 3},
		"huge-span":  {0, float64(1 << 22)},
		"pos-inf":    {0, 1, math.Inf(1)},
		"neg-inf":    {math.Inf(-1), 0},
		"nan":        {0, math.NaN(), 1},
		"too-big":    {0, 3 * maxCountingValue},
	}
	for label, values := range cases {
		order := make([]int32, len(values))
		if _, ok := tryCountingOrder(values, order, nil); ok {
			t.Errorf("%s: counting path accepted an ineligible field", label)
		}
	}
}

func TestCountingOrderScratchReuse(t *testing.T) {
	// One counts buffer reused across fields of different spans must
	// reset cleanly; a stale count would corrupt the order.
	var counts []int32
	rng := rand.New(rand.NewSource(2))
	for _, span := range []int{17, 3, 101, 2, 64} {
		values := make([]float64, 300)
		for i := range values {
			values[i] = float64(rng.Intn(span))
		}
		order := make([]int32, len(values))
		var ok bool
		if counts, ok = tryCountingOrder(values, order, counts); !ok {
			t.Fatalf("span %d rejected", span)
		}
		if want := oracleSweepOrder(values); !reflect.DeepEqual(want, order) {
			t.Fatalf("span %d: reused-scratch counting order diverges", span)
		}
	}
}

// TestCountingOrderOnRegistryMeasures is the acceptance oracle: on
// every registered measure whose field is integer-valued, the counting
// path must reproduce the comparison sort exactly. Fractional measures
// (pagerank, clustering, …) must be declined, not mis-sorted, and
// SweepOrder must reproduce it on every measure.
func TestCountingOrderOnRegistryMeasures(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	edges := make([]graph.Edge, 0, 900)
	for len(edges) < 900 {
		u, v := rng.Int31n(300), rng.Int31n(300)
		if u != v {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	g := graph.FromEdges(300, edges)

	integerEligible := 0
	for _, name := range measures.Names() {
		spec, _ := measures.Lookup(name)
		values := spec.Compute(g)
		order := make([]int32, len(values))
		_, ok := tryCountingOrder(values, order, nil)
		if _, _, eligible := integerSpan(values); eligible != ok {
			t.Fatalf("%s: integerSpan and tryCountingOrder disagree", name)
		}
		want := oracleSweepOrder(values)
		if !reflect.DeepEqual(want, SweepOrder(values)) {
			t.Fatalf("%s: SweepOrder diverges from the comparison sort", name)
		}
		if !ok {
			continue
		}
		integerEligible++
		if !reflect.DeepEqual(want, order) {
			t.Fatalf("%s: counting sweep order diverges from the comparison sort", name)
		}
	}
	// kcore, onion, degree, triangles, and ktruss at minimum are
	// integer-valued; a drop means the fast path stopped triggering.
	if integerEligible < 5 {
		t.Fatalf("only %d registry measures took the counting path, want >= 5", integerEligible)
	}
}

func BenchmarkAblationCountingSort(b *testing.B) {
	// Integer small-range field at sort-bound scale: counting vs the
	// radix and comparison sorts.
	rng := rand.New(rand.NewSource(7))
	values := make([]float64, 200000)
	for i := range values {
		values[i] = float64(rng.Intn(64))
	}
	order := make([]int32, len(values))
	b.Run("counting", func(b *testing.B) {
		var counts []int32
		for i := 0; i < b.N; i++ {
			counts, _ = tryCountingOrder(values, order, counts)
		}
	})
	b.Run("radix", func(b *testing.B) {
		// Bypass the fast-path dispatch to time the radix sort itself.
		var r radixSorter
		for i := 0; i < b.N; i++ {
			r.sort(values, order)
		}
	})
	b.Run("comparison", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			oracleSweepOrder(values)
		}
	})
}
