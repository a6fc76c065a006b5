package nucleus

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/measures"
)

func complete(n int) *graph.Graph {
	var edges []graph.Edge
	for u := int32(0); u < int32(n); u++ {
		for v := u + 1; v < int32(n); v++ {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	return graph.FromEdges(n, edges)
}

func random(seed int64, n int, p float64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	for u := int32(0); u < int32(n); u++ {
		for v := u + 1; v < int32(n); v++ {
			if rng.Float64() < p {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
	}
	return graph.FromEdges(n, edges)
}

// twoK4sBridged is two disjoint K4s plus a single bridge edge.
func twoK4sBridged() *graph.Graph {
	var edges []graph.Edge
	for u := int32(0); u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			edges = append(edges, graph.Edge{U: u, V: v})
			edges = append(edges, graph.Edge{U: u + 4, V: v + 4})
		}
	}
	edges = append(edges, graph.Edge{U: 3, V: 4})
	return graph.FromEdges(8, edges)
}

func TestUnsupportedPair(t *testing.T) {
	if _, err := Decompose(complete(4), 2, 4); err == nil {
		t.Fatal("Decompose(2,4) should be rejected")
	}
	if _, err := Decompose(complete(4), 1, 3); err == nil {
		t.Fatal("Decompose(1,3) should be rejected")
	}
}

func TestVertexEdgeNucleusEqualsCoreNumbers(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := random(seed, 40, 0.15)
		d, err := Decompose(g, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		want := measures.CoreNumbers(g)
		if !reflect.DeepEqual(d.Kappa, want) {
			t.Fatalf("seed %d: (1,2)-nucleus κ %v != core numbers %v", seed, d.Kappa, want)
		}
	}
}

func TestEdgeTriangleNucleusEqualsTrussNumbers(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := random(seed, 30, 0.25)
		d, err := Decompose(g, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		want := measures.TrussNumbers(g)
		if !reflect.DeepEqual(d.Kappa, want) {
			t.Fatalf("seed %d: (2,3)-nucleus κ %v != truss numbers %v", seed, d.Kappa, want)
		}
	}
}

func TestTriangleK4NucleusOnCompleteGraphs(t *testing.T) {
	// In K_n every triangle lies in exactly n-3 four-cliques, and the
	// whole graph is the unique densest nucleus, so κ = n-3 everywhere.
	for n := 4; n <= 7; n++ {
		g := complete(n)
		d, err := Decompose(g, 3, 4)
		if err != nil {
			t.Fatal(err)
		}
		wantTris := n * (n - 1) * (n - 2) / 6
		if len(d.RCliques) != 3*wantTris {
			t.Fatalf("K%d: %d triangles, want %d", n, len(d.RCliques)/3, wantTris)
		}
		wantQuads := wantTris * (n - 3) / 4
		if len(d.Members) != 4*wantQuads {
			t.Fatalf("K%d: %d four-cliques, want %d", n, len(d.Members)/4, wantQuads)
		}
		for i, k := range d.Kappa {
			if k != int32(n-3) {
				t.Fatalf("K%d: κ(triangle %d) = %d, want %d", n, i, k, n-3)
			}
		}
	}
}

func TestTriangleK4TriangleFree(t *testing.T) {
	// A 4-cycle has no triangles at all.
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 0, V: 3}})
	d, err := Decompose(g, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.RCliques) != 0 || len(d.Members) != 0 {
		t.Fatalf("4-cycle: got %d triangles, %d K4s; want none", len(d.RCliques)/3, len(d.Members)/4)
	}
}

func TestEnumTrianglesCount(t *testing.T) {
	d, err := Decompose(complete(6), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.RCliques) != 3*20 {
		t.Fatalf("K6 has %d triangles, want 20", len(d.RCliques)/3)
	}
	seen := map[[3]int32]bool{}
	for i := 0; i < len(d.RCliques); i += 3 {
		tr := [3]int32(d.RCliques[i : i+3])
		if !(tr[0] < tr[1] && tr[1] < tr[2]) {
			t.Fatalf("triangle %v not sorted", tr)
		}
		if seen[tr] {
			t.Fatalf("triangle %v reported twice", tr)
		}
		seen[tr] = true
	}
}

func TestForestDisconnectedTrusses(t *testing.T) {
	g := twoK4sBridged()
	d, err := Decompose(g, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	forest := d.Forest()

	// At k=2: the two K4s are separate 2-trusses (6 edges each); the
	// bridge (κ=0) is excluded.
	nuclei := forest.NucleiAt(2)
	if len(nuclei) != 2 {
		t.Fatalf("NucleiAt(2): %d nuclei, want 2", len(nuclei))
	}
	for _, nuc := range nuclei {
		if len(nuc) != 6 {
			t.Fatalf("2-truss nucleus has %d edges, want 6", len(nuc))
		}
	}

	// At k=0 every edge survives, but nucleus connectivity is via
	// shared triangles, so the bridge edge — in no triangle — is its
	// own nucleus: 3 nuclei, not 1. This distinguishes the nucleus
	// forest from plain vertex connectivity.
	nuclei0 := forest.NucleiAt(0)
	if len(nuclei0) != 3 {
		t.Fatalf("NucleiAt(0): %d nuclei, want 3 (two K4 trusses + isolated bridge)", len(nuclei0))
	}
}

func TestNucleiPartitionSurvivors(t *testing.T) {
	// At every level k, the nuclei must partition {R : κ(R) >= k}.
	for seed := int64(0); seed < 4; seed++ {
		g := random(seed, 25, 0.3)
		for _, rs := range [][2]int{{1, 2}, {2, 3}, {3, 4}} {
			d, err := Decompose(g, rs[0], rs[1])
			if err != nil {
				t.Fatal(err)
			}
			forest := d.Forest()
			for k := int32(0); k <= d.MaxKappa(); k++ {
				var survivors []int32
				for r, kap := range d.Kappa {
					if kap >= k {
						survivors = append(survivors, int32(r))
					}
				}
				var covered []int32
				for _, nuc := range forest.NucleiAt(k) {
					covered = append(covered, nuc...)
				}
				sortInt32(survivors)
				sortInt32(covered)
				if !reflect.DeepEqual(survivors, covered) {
					t.Fatalf("(%d,%d) seed %d k=%d: nuclei cover %v, want %v",
						rs[0], rs[1], seed, k, covered, survivors)
				}
			}
		}
	}
}

func TestNucleiSupportWithinNucleus(t *testing.T) {
	// Definitional check: inside a k-nucleus, every r-clique must
	// participate in at least k s-cliques whose members all lie in the
	// nucleus.
	for seed := int64(10); seed < 13; seed++ {
		g := random(seed, 22, 0.35)
		for _, rs := range [][2]int{{1, 2}, {2, 3}, {3, 4}} {
			d, err := Decompose(g, rs[0], rs[1])
			if err != nil {
				t.Fatal(err)
			}
			forest := d.Forest()
			for k := int32(1); k <= d.MaxKappa(); k++ {
				for _, nuc := range forest.NucleiAt(k) {
					in := map[int32]bool{}
					for _, r := range nuc {
						in[r] = true
					}
					support := map[int32]int32{}
					for c := 0; c < len(d.Members); c += d.S {
						ms := d.Members[c : c+d.S]
						all := true
						for _, r := range ms {
							if !in[r] {
								all = false
								break
							}
						}
						if !all {
							continue
						}
						for _, r := range ms {
							support[r]++
						}
					}
					for _, r := range nuc {
						if support[r] < k {
							t.Fatalf("(%d,%d) seed %d: r-clique %d has support %d inside its %d-nucleus",
								rs[0], rs[1], seed, r, support[r], k)
						}
					}
				}
			}
		}
	}
}

func TestNucleiNestAcrossLevels(t *testing.T) {
	g := random(99, 30, 0.25)
	d, err := Decompose(g, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	forest := d.Forest()
	for k := int32(1); k <= d.MaxKappa(); k++ {
		parents := forest.NucleiAt(k - 1)
		owner := map[int32]int{}
		for pi, p := range parents {
			for _, r := range p {
				owner[r] = pi
			}
		}
		for _, child := range forest.NucleiAt(k) {
			want := owner[child[0]]
			for _, r := range child[1:] {
				if owner[r] != want {
					t.Fatalf("k=%d: nucleus %v spans two (k-1)-nuclei", k, child)
				}
			}
		}
	}
}

func TestForestTreeValid(t *testing.T) {
	g := random(7, 35, 0.2)
	for _, rs := range [][2]int{{1, 2}, {2, 3}, {3, 4}} {
		d, err := Decompose(g, rs[0], rs[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Forest().Tree.Validate(); err != nil {
			t.Fatalf("(%d,%d) forest tree invalid: %v", rs[0], rs[1], err)
		}
	}
}

func TestKappaFieldMatchesKappa(t *testing.T) {
	g := complete(5)
	d, err := Decompose(g, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	f := d.KappaField()
	if len(f) != len(d.Kappa) {
		t.Fatalf("field length %d, want %d", len(f), len(d.Kappa))
	}
	for i := range f {
		if f[i] != float64(d.Kappa[i]) {
			t.Fatalf("field[%d] = %v, want %d", i, f[i], d.Kappa[i])
		}
	}
}

func TestMaxKappaEmptyGraph(t *testing.T) {
	g := graph.FromEdges(3, nil)
	d, err := Decompose(g, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d.MaxKappa() != 0 {
		t.Fatalf("MaxKappa = %d on edgeless graph, want 0", d.MaxKappa())
	}
	if len(d.Forest().NucleiAt(0)) != 0 {
		t.Fatal("edgeless graph should have no (2,3)-nuclei")
	}
}

// TestDecomposeRelabelingPermutesKappa is the metamorphic check on the
// kernels: renaming vertices renames every r-clique, and κ must follow
// it, for every pair. The oriented listing ranks ties by vertex ID, so
// a relabeling reorders the listing and the peel.
func TestDecomposeRelabelingPermutesKappa(t *testing.T) {
	graphs := []*graph.Graph{twoK4sBridged(), complete(7), random(3, 30, 0.3), random(4, 40, 0.2)}
	for gi, g := range graphs {
		n := g.NumVertices()
		perm := make([]int32, n)
		for i, p := range rand.New(rand.NewSource(int64(gi))).Perm(n) {
			perm[i] = int32(p)
		}
		var edges []graph.Edge
		for _, e := range g.Edges() {
			edges = append(edges, graph.Edge{U: perm[e.U], V: perm[e.V]})
		}
		h := graph.FromEdges(n, edges)
		for _, rs := range [][2]int{{1, 2}, {2, 3}, {3, 4}} {
			dg, err := Decompose(g, rs[0], rs[1])
			if err != nil {
				t.Fatal(err)
			}
			dh, err := Decompose(h, rs[0], rs[1])
			if err != nil {
				t.Fatal(err)
			}
			if want, got := kappaByTuple(dg, perm), kappaByTuple(dh, nil); !reflect.DeepEqual(want, got) {
				t.Fatalf("graph %d (%d,%d): relabeling does not permute κ", gi, rs[0], rs[1])
			}
		}
	}
}

// kappaByTuple maps each r-clique, renamed by perm (nil keeps the
// names) and sorted, to its κ.
func kappaByTuple(d *Decomposition, perm []int32) map[[3]int32]int32 {
	out := make(map[[3]int32]int32, len(d.Kappa))
	for i, k := range d.Kappa {
		key := [3]int32{-1, -1, -1}
		for j, v := range d.RCliques[d.R*i : d.R*i+d.R] {
			if perm != nil {
				v = perm[v]
			}
			key[j] = v
		}
		sort.Slice(key[:d.R], func(a, b int) bool { return key[a] < key[b] })
		out[key] = k
	}
	return out
}

func sortInt32(s []int32) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
