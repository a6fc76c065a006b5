package measures

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// sameWithinSummationSlack reports whether two accumulated float fields
// agree up to floating-point summation-order freedom.
func sameWithinSummationSlack(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if diff := math.Abs(a[i] - b[i]); diff > 1e-9*math.Max(1, math.Abs(b[i])) {
			return i, false
		}
	}
	return -1, true
}

// TestBatchedBetweennessMatchesPerSource is the measures-level oracle:
// on every corpus graph the batched MS-Brandes field equals the
// retained per-source baseline up to summation order.
func TestBatchedBetweennessMatchesPerSource(t *testing.T) {
	for name, g := range oracleGraphs() {
		want := PerSourceBetweennessCentrality(g)
		got := BetweennessCentrality(g)
		if v, ok := sameWithinSummationSlack(got, want); !ok {
			t.Fatalf("%s: bc[%d] = %g, per-source baseline %g", name, v, got[v], want[v])
		}
	}
}

// TestBetweennessWorkerCountIndependent pins the stripe-merge contract:
// the batched kernel is bitwise identical for every worker count, so
// BetweennessCentrality returns the same bits whatever par.Workers
// picks.
func TestBetweennessWorkerCountIndependent(t *testing.T) {
	g := randomGraph(61, 700, 2.5)
	want := approxBetweenness(g, g.NumVertices(), 0, 1)
	for _, w := range []int{2, 3, 4, 5, 6, 7, 8, 16} {
		if got := approxBetweenness(g, g.NumVertices(), 0, w); !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: batched betweenness diverges bitwise from one worker", w)
		}
	}
	if got := BetweennessCentrality(g); !reflect.DeepEqual(want, got) {
		t.Fatal("BetweennessCentrality diverges bitwise from the one-worker kernel")
	}
}

// TestParallelEdgeBetweennessMatchesSerial checks the batched edge
// kernel against the per-source oracle on the corpus, and its bitwise
// worker independence.
func TestParallelEdgeBetweennessMatchesSerial(t *testing.T) {
	for name, g := range oracleGraphs() {
		want := PerSourceEdgeBetweennessCentrality(g)
		got := EdgeBetweennessCentrality(g)
		if e, ok := sameWithinSummationSlack(got, want); !ok {
			t.Fatalf("%s: ebc[%d] = %g, per-source oracle %g", name, e, got[e], want[e])
		}
	}
	g := randomGraph(62, 500, 3.0)
	want := msBrandesEdgeBetweenness(g, 1)
	for w := 2; w <= 8; w++ {
		if got := msBrandesEdgeBetweenness(g, w); !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: batched edge betweenness diverges bitwise from one worker", w)
		}
	}
	if got := EdgeBetweennessCentrality(g); !reflect.DeepEqual(want, got) {
		t.Fatal("EdgeBetweennessCentrality diverges bitwise from the one-worker kernel")
	}
}

// TestBatchedVertexAndEdgeFieldsShareOnePass checks that asking the
// engine for both fields at once yields exactly the fields of the two
// separate passes — the shared reverse sweep attributes the same
// per-update floats either way.
func TestBatchedVertexAndEdgeFieldsShareOnePass(t *testing.T) {
	g := randomGraph(63, 300, 2.5)
	labels, order := componentOrder(g)
	bc, ebc := msBrandesFields(g, labels, order, true, true, distFields{}, 3)
	bcOnly, _ := msBrandesFields(g, labels, order, true, false, distFields{}, 1)
	_, ebcOnly := msBrandesFields(g, labels, order, false, true, distFields{}, 2)
	if !reflect.DeepEqual(bc, bcOnly) {
		t.Fatal("combined pass vertex field diverges from bc-only pass")
	}
	if !reflect.DeepEqual(ebc, ebcOnly) {
		t.Fatal("combined pass edge field diverges from ebc-only pass")
	}
}

// TestParallelApproxBitwiseMatchesSerial pins the sampled-path
// contract: every worker count draws the identical seeded pivot set
// and merges in the identical stripe order, so the sampled kernel is
// bitwise identical for any worker count.
func TestParallelApproxBitwiseMatchesSerial(t *testing.T) {
	g := randomGraph(64, 900, 2.0)
	want := approxBetweenness(g, 130, 9, 1)
	for w := 2; w <= 8; w++ {
		if got := approxBetweenness(g, 130, 9, w); !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: sampled betweenness diverges bitwise from one worker", w)
		}
	}
	if got := ApproxBetweennessCentrality(g, 130, 9); !reflect.DeepEqual(want, got) {
		t.Fatal("ApproxBetweennessCentrality diverges bitwise from the one-worker kernel")
	}
}

// TestApproxSaturatesToExact pins the sample-count edges: samples >= n
// degrades to the exact kernel rather than oversampling, and
// samples <= 0 draws no pivots and returns the all-zero field (once
// all-NaN from a division by zero samples, and a makeslice panic for
// negative counts).
func TestApproxSaturatesToExact(t *testing.T) {
	g := randomGraph(65, 150, 2.0)
	want := BetweennessCentrality(g)
	if got := ApproxBetweennessCentrality(g, 150, 3); !reflect.DeepEqual(want, got) {
		t.Fatal("samples == n sampled kernel diverges from exact")
	}
	if got := ApproxBetweennessCentrality(g, 400, 3); !reflect.DeepEqual(want, got) {
		t.Fatal("samples > n sampled kernel diverges from exact")
	}
	zero := make([]float64, g.NumVertices())
	for _, samples := range []int{0, -1} {
		if got := ApproxBetweennessCentrality(g, samples, 3); !reflect.DeepEqual(zero, got) {
			t.Fatalf("samples = %d: want the all-zero field, got %v", samples, got[:5])
		}
	}
}

// TestSampleSourcesUniformWithoutReplacement checks the partial
// Fisher–Yates sampler: right count, in range, all distinct,
// deterministic per seed, and a full permutation when samples == n.
func TestSampleSourcesUniformWithoutReplacement(t *testing.T) {
	const n, samples = 1000, 64
	s1 := sampleSources(n, samples, 7)
	if len(s1) != samples {
		t.Fatalf("got %d sources, want %d", len(s1), samples)
	}
	seen := map[int32]bool{}
	for _, v := range s1 {
		if v < 0 || v >= n {
			t.Fatalf("source %d out of range [0,%d)", v, n)
		}
		if seen[v] {
			t.Fatalf("source %d drawn twice", v)
		}
		seen[v] = true
	}
	if s2 := sampleSources(n, samples, 7); !reflect.DeepEqual(s1, s2) {
		t.Fatal("same seed draws different sources")
	}
	if s3 := sampleSources(n, samples, 8); reflect.DeepEqual(s1, s3) {
		t.Fatal("different seeds draw identical sources (suspicious)")
	}
	full := sampleSources(40, 40, 3)
	perm := map[int32]bool{}
	for _, v := range full {
		perm[v] = true
	}
	if len(perm) != 40 {
		t.Fatalf("samples == n drew %d distinct of 40 (not a permutation)", len(perm))
	}
}

// TestComponentDiameterMatchesEccentricityOracle checks the
// early-cutoff diameter against the definition: per component, the
// maximum eccentricity over its members, constant across the
// component.
func TestComponentDiameterMatchesEccentricityOracle(t *testing.T) {
	for name, g := range oracleGraphs() {
		ecc := Eccentricity(g)
		labels, count := graph.ConnectedComponents(g)
		want := make([]float64, count)
		for v, c := range labels {
			if ecc[v] > want[c] {
				want[c] = ecc[v]
			}
		}
		got := ComponentDiameter(g)
		for v := range got {
			if got[v] != want[labels[v]] {
				t.Fatalf("%s: diameter[%d] = %g, max component eccentricity %g",
					name, v, got[v], want[labels[v]])
			}
		}
	}
}

// TestKHopMatchesBFSOracle checks the khop fold against naive BFS
// counting of vertices within KHopRadius hops, plus bitwise agreement
// across worker counts.
func TestKHopMatchesBFSOracle(t *testing.T) {
	for name, g := range oracleGraphs() {
		got := KHopSize(g)
		for v := range got {
			var want float64
			for _, d := range graph.BFSDistances(g, int32(v)) {
				if d >= 1 && d <= KHopRadius {
					want++
				}
			}
			if got[v] != want {
				t.Fatalf("%s: khop[%d] = %g, BFS oracle %g", name, v, got[v], want)
			}
		}
		for w := 1; w <= 8; w++ {
			if par := msbfsFields(g, distSel{khop: true}, w).khop; !reflect.DeepEqual(got, par) {
				t.Fatalf("%s: workers=%d khop diverges bitwise", name, w)
			}
		}
	}
}

// TestApproximateSuiteResolvesThroughRegistry pins the registry wiring
// of the approximate-distance measures: names resolve, kinds are
// right, and Compute returns one value per vertex.
func TestApproximateSuiteResolvesThroughRegistry(t *testing.T) {
	g := randomGraph(66, 200, 2.0)
	for _, name := range []string{"betweenness-sampled", "diameter", "khop"} {
		spec, ok := Lookup(name)
		if !ok {
			t.Fatalf("measure %q not registered", name)
		}
		if spec.Kind != Vertex {
			t.Fatalf("measure %q has kind %v, want vertex", name, spec.Kind)
		}
		if got := spec.Compute(g); len(got) != g.NumVertices() {
			t.Fatalf("measure %q returned %d values for %d vertices",
				name, len(got), g.NumVertices())
		}
	}
	if !SharedPass("khop") || !SharedPass("khop", "betweenness-sampled") {
		t.Fatal("khop should join the shared pass")
	}
	fields, ok := SharedDistanceFields(g, []string{"khop", "eccentricity"})
	if !ok {
		t.Fatal("shared pass refused khop+eccentricity")
	}
	if !reflect.DeepEqual(fields["khop"], KHopSize(g)) {
		t.Fatal("shared-pass khop diverges from the standalone kernel")
	}
}

// TestBetweennessSampledRegistryDeterministic pins that the registry's
// sampled measure is reproducible run to run and across worker counts
// — the property that makes it safe to serve.
func TestBetweennessSampledRegistryDeterministic(t *testing.T) {
	g := randomGraph(67, 800, 2.0)
	spec, _ := Lookup("betweenness-sampled")
	a := spec.Compute(g)
	b := spec.Compute(g)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("sampled measure differs between identical runs")
	}
	// Same pivots, same stripe merge: bitwise for any worker count.
	for w := 1; w <= 8; w++ {
		if c := approxBetweenness(g, betweennessSamples, betweennessSeed, w); !reflect.DeepEqual(a, c) {
			t.Fatalf("workers=%d: sampled measure diverges bitwise from the registry", w)
		}
	}
}
