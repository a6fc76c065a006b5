package measures

import (
	"reflect"
	"testing"

	"repro/internal/graph"
)

// eccentricityReference computes eccentricity from naive per-source
// BFS distances: the maximum distance to any reachable vertex, 0 for
// isolated vertices. Integer-valued, so the oracle comparison is
// exact.
func eccentricityReference(g *graph.Graph) []float64 {
	n := g.NumVertices()
	out := make([]float64, n)
	for v := 0; v < n; v++ {
		var max int32
		for _, d := range graph.BFSDistances(g, int32(v)) {
			if d > max {
				max = d
			}
		}
		out[v] = float64(max)
	}
	return out
}

// TestEccentricityMatchesNaiveBFS is the satellite oracle: the MS-BFS
// eccentricity fold equals the per-source reference exactly on every
// corpus graph — paths (deep levels), stars (shallow), complete
// graphs (direction switch), disconnected graphs with isolated
// vertices — for every worker count.
func TestEccentricityMatchesNaiveBFS(t *testing.T) {
	for name, g := range oracleGraphs() {
		want := eccentricityReference(g)
		if got := Eccentricity(g); !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: MS-BFS eccentricity diverges from the BFS reference", name)
		}
		for w := 1; w <= 8; w++ {
			if got := msbfsFields(g, distSel{ecc: true}, w).ecc; !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: workers=%d MS-BFS eccentricity diverges from the BFS reference", name, w)
			}
		}
	}
}

// TestEccentricityStructuredShapes pins hand-computable values.
func TestEccentricityStructuredShapes(t *testing.T) {
	// Path 0-1-2-3-4: ecc = 4,3,2,3,4.
	if got := Eccentricity(pathGraph(5)); !reflect.DeepEqual(got, []float64{4, 3, 2, 3, 4}) {
		t.Fatalf("path eccentricity %v", got)
	}
	// Star: center 1, leaves 2.
	star := Eccentricity(starGraph(6))
	if star[0] != 1 {
		t.Fatalf("star center eccentricity %v, want 1", star[0])
	}
	for v := 1; v < len(star); v++ {
		if star[v] != 2 {
			t.Fatalf("star leaf %d eccentricity %v, want 2", v, star[v])
		}
	}
	// Isolated vertices: 0.
	if got := Eccentricity(graph.NewBuilder(3).Build()); !reflect.DeepEqual(got, []float64{0, 0, 0}) {
		t.Fatalf("isolated eccentricity %v", got)
	}
}

// TestEccentricityJoinsSharedPass: the new measure is distance-based
// and computes alongside closeness/harmonic in one traversal,
// bit-identical to the standalone kernel.
func TestEccentricityJoinsSharedPass(t *testing.T) {
	g := randomGraph(33, 250, 2.0)
	fields, ok := SharedDistanceFields(g, []string{"closeness", "harmonic", "eccentricity"})
	if !ok {
		t.Fatal("eccentricity must join the shared distance pass")
	}
	if !reflect.DeepEqual(fields["eccentricity"], Eccentricity(g)) {
		t.Fatal("shared-pass eccentricity diverges from the standalone kernel")
	}
	if !reflect.DeepEqual(fields["closeness"], ClosenessCentrality(g)) {
		t.Fatal("adding eccentricity changed the shared-pass closeness field")
	}
	if !SharedPass("eccentricity", "closeness") || !SharedPass("eccentricity", "betweenness-sampled") {
		t.Fatal("eccentricity does not join the shared pass")
	}
	spec, ok := Lookup("eccentricity")
	if !ok || spec.Kind != Vertex {
		t.Fatal("eccentricity not registered as a vertex measure")
	}
}
