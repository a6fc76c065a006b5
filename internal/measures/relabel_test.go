package measures

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// manyComponentGraph is the relabeling input: a sparse random blob
// (itself split into several components), identical copies of a
// triangle, a 4-path and a 5-leaf star — so many vertices tie — and
// isolated vertices. Its non-isolated vertices fill several batches.
func manyComponentGraph() *graph.Graph {
	const blob, triangles, paths, stars, isolated = 150, 12, 10, 8, 30
	b := graph.NewBuilder(blob + 3*triangles + 4*paths + 6*stars + isolated)
	rng := rand.New(rand.NewSource(71))
	for i := 0; i < 2*blob; i++ {
		b.AddEdge(int32(rng.Intn(blob)), int32(rng.Intn(blob)))
	}
	v := int32(blob)
	for range triangles {
		b.AddEdge(v, v+1)
		b.AddEdge(v+1, v+2)
		b.AddEdge(v, v+2)
		v += 3
	}
	for range paths {
		b.AddEdge(v, v+1)
		b.AddEdge(v+1, v+2)
		b.AddEdge(v+2, v+3)
		v += 4
	}
	for range stars {
		for leaf := int32(1); leaf <= 5; leaf++ {
			b.AddEdge(v, v+leaf)
		}
		v += 6
	}
	return b.Build() // the last `isolated` vertices have no edges
}

// relabel returns g with vertex v renamed perm[v].
func relabel(g *graph.Graph, perm []int32) *graph.Graph {
	b := graph.NewBuilder(g.NumVertices())
	for _, e := range g.Edges() {
		b.AddEdge(perm[e.U], perm[e.V])
	}
	return b.Build()
}

// TestRelabelingPermutesFields is the metamorphic check on the batch
// order: batches are chunks of a vertex-ID-dependent component order,
// so relabeling vertices regroups the batches, but never the answers.
// Distance fields are exact per-source folds and must permute bitwise;
// exact vertex and edge betweenness sum in batch order and must
// permute within the per-source oracle's tolerance.
func TestRelabelingPermutesFields(t *testing.T) {
	g := manyComponentGraph()
	n := g.NumVertices()
	bc := BetweennessCentrality(g)
	ebc := EdgeBetweennessCentrality(g)
	for seed := int64(1); seed <= 3; seed++ {
		perm := make([]int32, n)
		for i, p := range rand.New(rand.NewSource(seed)).Perm(n) {
			perm[i] = int32(p)
		}
		h := relabel(g, perm)

		for _, name := range []string{"closeness", "harmonic", "eccentricity", "khop"} {
			spec, _ := Lookup(name)
			orig, moved := spec.Compute(g), spec.Compute(h)
			want := make([]float64, n)
			for v, x := range orig {
				want[perm[v]] = x
			}
			if !reflect.DeepEqual(want, moved) {
				t.Fatalf("seed %d: %s does not permute bitwise under relabeling", seed, name)
			}
		}

		wantBC := make([]float64, n)
		for v, x := range bc {
			wantBC[perm[v]] = x
		}
		if v, ok := sameWithinSummationSlack(BetweennessCentrality(h), wantBC); !ok {
			t.Fatalf("seed %d: relabeled bc[%d] leaves the oracle tolerance of %g", seed, v, wantBC[v])
		}
		wantEBC := make([]float64, g.NumEdges())
		for e, x := range ebc {
			ed := g.Edge(int32(e))
			wantEBC[h.EdgeID(perm[ed.U], perm[ed.V])] = x
		}
		if e, ok := sameWithinSummationSlack(EdgeBetweennessCentrality(h), wantEBC); !ok {
			t.Fatalf("seed %d: relabeled ebc[%d] leaves the oracle tolerance of %g", seed, e, wantEBC[e])
		}
	}
}
