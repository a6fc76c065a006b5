package core

// Equivalence tests for the generic sweep engine: the pre-refactor
// Algorithm 1 and Algorithm 3 loops are preserved here verbatim as
// test oracles, and the engine-backed builders must reproduce their
// Tree and SuperTree output bit for bit — including on fields with
// heavy scalar ties, where sweep-order tie-breaking decides the tree
// shape.

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/unionfind"
)

// refBuildVertexTree is the pre-refactor BuildVertexTree: the explicit
// Algorithm 1 loop with the serial sweep-order sort.
func refBuildVertexTree(f *VertexField) *Tree {
	n := f.G.NumVertices()
	t := &Tree{
		Parent: make([]int32, n),
		Scalar: make([]float64, n),
		Order:  oracleSweepOrder(f.Values),
	}
	copy(t.Scalar, f.Values)
	for i := range t.Parent {
		t.Parent[i] = -1
	}

	dsu := unionfind.New(n)
	compRoot := make([]int32, n)
	for i := range compRoot {
		compRoot[i] = int32(i)
	}
	processed := make([]bool, n)

	for _, vi := range t.Order {
		for _, vj := range f.G.Neighbors(vi) {
			if !processed[vj] {
				continue
			}
			ri, rj := dsu.Find(int(vi)), dsu.Find(int(vj))
			if ri == rj {
				continue
			}
			t.Parent[compRoot[rj]] = vi
			dsu.Union(ri, rj)
			compRoot[dsu.Find(int(vi))] = vi
		}
		processed[vi] = true
	}
	return t
}

// refBuildEdgeTree is the pre-refactor BuildEdgeTree: the explicit
// Algorithm 3 loop with the rank-based "m < i" guard.
func refBuildEdgeTree(f *EdgeField) *Tree {
	m := f.G.NumEdges()
	t := &Tree{
		Parent: make([]int32, m),
		Scalar: make([]float64, m),
		Order:  oracleSweepOrder(f.Values),
	}
	copy(t.Scalar, f.Values)
	for i := range t.Parent {
		t.Parent[i] = -1
	}
	if m == 0 {
		return t
	}

	rank := make([]int32, m)
	for i, e := range t.Order {
		rank[e] = int32(i)
	}

	n := f.G.NumVertices()
	minIDEdge := make([]int32, n)
	for v := range minIDEdge {
		minIDEdge[v] = -1
	}
	for v := int32(0); v < int32(n); v++ {
		for _, e := range f.G.IncidentEdges(v) {
			if minIDEdge[v] < 0 || rank[e] < rank[minIDEdge[v]] {
				minIDEdge[v] = e
			}
		}
	}

	dsu := unionfind.New(m)
	compRoot := make([]int32, m)
	for i := range compRoot {
		compRoot[i] = int32(i)
	}

	for i, ei := range t.Order {
		edge := f.G.Edge(ei)
		for _, em := range [2]int32{minIDEdge[edge.U], minIDEdge[edge.V]} {
			if em < 0 || rank[em] >= int32(i) {
				continue
			}
			ri, rm := dsu.Find(int(ei)), dsu.Find(int(em))
			if ri == rm {
				continue
			}
			t.Parent[compRoot[rm]] = ei
			dsu.Union(ri, rm)
			compRoot[dsu.Find(int(ei))] = ei
		}
	}
	return t
}

// requireSameTree asserts bit-identical raw trees and bit-identical
// super trees after Algorithm 2.
func requireSameTree(t *testing.T, want, got *Tree, label string) {
	t.Helper()
	if !reflect.DeepEqual(want.Parent, got.Parent) {
		t.Fatalf("%s: Parent diverges from pre-refactor oracle", label)
	}
	if !reflect.DeepEqual(want.Scalar, got.Scalar) {
		t.Fatalf("%s: Scalar diverges from pre-refactor oracle", label)
	}
	if !reflect.DeepEqual(want.Order, got.Order) {
		t.Fatalf("%s: sweep Order diverges from pre-refactor oracle", label)
	}
	ws, gs := Postprocess(want), Postprocess(got)
	if !reflect.DeepEqual(ws, gs) {
		t.Fatalf("%s: SuperTree diverges from pre-refactor oracle", label)
	}
	if err := gs.Validate(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// randomTieField builds a random graph with n vertices and roughly
// n*avgDeg/2 edges whose values are drawn from a small integer range,
// forcing heavy scalar ties.
func randomTieField(seed int64, n, avgDeg, levels int) *VertexField {
	rng := rand.New(rand.NewSource(seed))
	m := n * avgDeg / 2
	if n < 2 {
		m = 0
	}
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
		values[i] = float64(rng.Intn(levels))
	}
	return MustVertexField(g, values)
}

func TestSweepEngineVertexMatchesPreRefactor(t *testing.T) {
	// Few levels take the counting sort; values drawn from 1<<20
	// levels span too wide for it, so those fields take the radix sort.
	for seed := int64(0); seed < 5; seed++ {
		for _, n := range []int{1, 2, 50, 300, 5000} {
			for _, levels := range []int{1, 3, 1 << 20} {
				f := randomTieField(seed, n, 6, levels)
				label := "vertex"
				requireSameTree(t, refBuildVertexTree(f), BuildVertexTree(f), label)
				requireSameTree(t, refBuildVertexTree(f), BuildVertexTreeSerial(f), label+"-serial")
			}
		}
	}
}

func TestSweepEngineEdgeMatchesPreRefactor(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		for _, n := range []int{2, 60, 400, 1600} {
			for _, levels := range []int{1, 4, 1 << 20} {
				vf := randomTieField(seed, n, 8, 2)
				g := vf.G
				rng := rand.New(rand.NewSource(seed + 1000))
				values := make([]float64, g.NumEdges())
				for i := range values {
					values[i] = float64(rng.Intn(levels))
				}
				f := MustEdgeField(g, values)
				requireSameTree(t, refBuildEdgeTree(f), BuildEdgeTree(f), "edge")
				requireSameTree(t, refBuildEdgeTree(f), BuildEdgeTreeSerial(f), "edge-serial")
			}
		}
	}
}

func TestSweepEngineEmptyField(t *testing.T) {
	g := graph.FromEdges(0, nil)
	vt := BuildVertexTree(MustVertexField(g, nil))
	if vt.Len() != 0 {
		t.Fatalf("empty vertex tree has %d nodes", vt.Len())
	}
	et := BuildEdgeTree(MustEdgeField(g, nil))
	if et.Len() != 0 {
		t.Fatalf("empty edge tree has %d nodes", et.Len())
	}
}

// TestSweepEngineDoesNotRetainCandidateSlices pins the sweepAdjacency
// consume-before-next-call contract from the engine's side.
// prop3Adjacency hands out slices aliasing one closure-captured
// 2-element buffer, so if the sweep ever retained a candidate slice
// across calls it would silently read the next item's candidates
// instead. The poisoning wrapper below is the harshest legal provider:
// before producing each result it overwrites everything it returned
// previously with garbage. The tree built through it must be
// bit-identical to one built through a provider that returns fresh
// copies — any divergence means the engine read a stale slice.
func TestSweepEngineDoesNotRetainCandidateSlices(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		for _, n := range []int{2, 40, 300} {
			vf := randomTieField(seed, n, 8, 3)
			g := vf.G
			rng := rand.New(rand.NewSource(seed + 500))
			values := make([]float64, g.NumEdges())
			for i := range values {
				values[i] = float64(rng.Intn(4))
			}
			f := MustEdgeField(g, values)
			order := oracleSweepOrder(f.Values)

			// Oracle: the same Proposition-3 candidates, but every result
			// is an independent copy, immune to scratch reuse.
			copying := prop3Adjacency(f, order)
			copyAdj := func(e int32) []int32 {
				return append([]int32(nil), copying(e)...)
			}
			want := buildTree(f.Values, append([]int32(nil), order...), copyAdj)

			// Candidate: scratch-backed provider wrapped to corrupt every
			// previously returned slice before producing the next one.
			inner := prop3Adjacency(f, order)
			var handedOut [][]int32
			poisoning := func(e int32) []int32 {
				for _, s := range handedOut {
					for i := range s {
						s[i] = -0x7ead
					}
				}
				handedOut = handedOut[:0]
				out := inner(e)
				handedOut = append(handedOut, out)
				return out
			}
			got := buildTree(f.Values, append([]int32(nil), order...), poisoning)

			requireSameTree(t, want, got, "poisoned-scratch edge tree")
		}
	}
}
