package core

import (
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
)

// No binary ranks peaks by persistence: Persistences and
// PersistenceSimplify live here, beside the tests that pin them.

// PeakPersistence quantifies how prominent each local peak of the
// scalar tree is, in the sense of topological persistence: a maximal
// α-connected component is "born" at the α where its top-most super
// node appears and "dies" when the sweep merges it into a component
// with a higher top. The persistence of a leaf-rooted branch is
// (birth - death); high-persistence branches are the peaks a viewer
// should trust, low-persistence ones are noise that simplification may
// flatten.
//
// This mirrors how the topological-landscape literature the paper
// builds on (Weber et al., Harvey & Wang) ranks features of a merge
// tree, and powers PersistenceSimplify below.
type PeakPersistence struct {
	// Node is the super node where the branch is born (a local-max
	// node: no child has a higher subtree top).
	Node int32
	// Birth is the branch top's scalar (its peak height).
	Birth float64
	// Death is the scalar at which the branch merges into a taller
	// sibling branch, or the global minimum of its tree for the
	// most-persistent branch of each component.
	Death float64
}

// Persistence reports Birth - Death.
func (p PeakPersistence) Persistence() float64 { return p.Birth - p.Death }

// Persistences computes the branch decomposition of the super tree:
// one entry per leaf super node, sorted by descending persistence.
//
// Each super node s has a "branch top" — the maximum scalar in its
// subtree. Standard merge-tree branch decomposition: walking from
// every leaf down to the root, a leaf's branch dies at the first
// ancestor whose other children contain a strictly taller (or equal,
// with lower node ID winning) top.
func Persistences(st *SuperTree) []PeakPersistence {
	out, _ := persistences(st)
	return out
}

// persistences is Persistences that also returns top, where top[s] is
// the maximum scalar in the subtree of s.
func persistences(st *SuperTree) ([]PeakPersistence, []float64) {
	n := st.Len()
	if n == 0 {
		return nil, nil
	}
	// top[s] = max scalar in subtree of s; carrier[s] = the leaf
	// achieving it (ties: smallest leaf ID).
	top := make([]float64, n)
	carrier := make([]int32, n)
	// Node IDs are topologically ordered parent-first, so a reverse
	// scan accumulates subtree maxima.
	for s := int32(n - 1); s >= 0; s-- {
		top[s] = st.Scalar[s]
		carrier[s] = s
		for _, c := range st.Children(s) {
			if top[c] > top[s] || (top[c] == top[s] && carrier[c] < carrier[s]) {
				top[s] = top[c]
				carrier[s] = carrier[c]
			}
		}
	}
	// Leaves are the branch births.
	var out []PeakPersistence
	for s := int32(0); s < int32(n); s++ {
		if len(st.Children(s)) > 0 {
			continue
		}
		// Walk rootward until this leaf stops being the carrier.
		death := st.Scalar[s]
		node := s
		for p := st.Parent[node]; p >= 0; p = st.Parent[node] {
			if carrier[p] != carrier[s] {
				// Branch merges into a taller branch at p.
				death = st.Scalar[p]
				break
			}
			node = p
			death = st.Scalar[p] // may end at the root
		}
		out = append(out, PeakPersistence{Node: s, Birth: st.Scalar[s], Death: death})
	}
	sort.SliceStable(out, func(i, j int) bool {
		pi, pj := out[i].Persistence(), out[j].Persistence()
		if pi != pj {
			return pi > pj
		}
		return out[i].Node < out[j].Node
	})
	return out, top
}

// PersistenceSimplify flattens low-persistence branches of a vertex
// field: every vertex whose branch persists less than threshold has
// its scalar clamped down to the branch's death value, removing
// sub-peak noise while leaving prominent peaks untouched. It returns a
// new field; the input is not modified.
//
// This is the principled alternative to uniform discretization
// (Discretize) when the goal is fewer visual peaks rather than fewer
// distinct values.
func PersistenceSimplify(f *VertexField, threshold float64) *VertexField {
	st := VertexSuperTree(f)
	out := make([]float64, len(f.Values))
	copy(out, f.Values)
	branches, top := persistences(st)
	for _, pp := range branches {
		if pp.Persistence() >= threshold {
			continue
		}
		// Clamp the whole branch (from its birth leaf up to where it
		// merges) to the death value. The branch's nodes are those
		// whose subtree top is this leaf's top carrier — walking from
		// the leaf down, stop before the merge node.
		node := pp.Node
		for {
			for _, item := range st.Members(node) {
				if out[item] > pp.Death {
					out[item] = pp.Death
				}
			}
			p := st.Parent[node]
			if p < 0 || st.Scalar[p] <= pp.Death {
				break
			}
			// Continue only while the parent still belongs to this
			// branch (it has no other child with a taller top).
			taller := false
			for _, c := range st.Children(p) {
				if c != node && top[c] >= pp.Birth {
					taller = true
					break
				}
			}
			if taller {
				break
			}
			node = p
		}
	}
	return &VertexField{G: f.G, Values: out}
}

// twoPeakField: a path whose scalars rise to 10 (vertices 0..2), dip
// to 1 (vertex 3), rise to 6 (vertices 4..6): two peaks of heights 10
// and 6 merging at 1.
func twoPeakField() *VertexField {
	b := graph.NewBuilder(7)
	for i := 0; i < 6; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	return MustVertexField(b.Build(), []float64{8, 10, 9, 1, 5, 6, 4})
}

func TestPersistencesTwoPeaks(t *testing.T) {
	st := VertexSuperTree(twoPeakField())
	pp := Persistences(st)
	if len(pp) != 2 {
		t.Fatalf("got %d branches, want 2 (leaves of the merge tree)", len(pp))
	}
	// Most persistent branch: the height-10 peak, dying at the global
	// minimum 1.
	if pp[0].Birth != 10 || pp[0].Death != 1 {
		t.Errorf("main branch birth/death = %g/%g, want 10/1", pp[0].Birth, pp[0].Death)
	}
	// Secondary branch: the height-6 peak, dying when it merges at 1.
	if pp[1].Birth != 6 {
		t.Errorf("secondary branch birth = %g, want 6", pp[1].Birth)
	}
	if pp[1].Death != 1 {
		t.Errorf("secondary branch death = %g, want 1 (merge at the dip)", pp[1].Death)
	}
	if pp[0].Persistence() < pp[1].Persistence() {
		t.Error("branches not sorted by persistence")
	}
}

func TestPersistencesSinglePeak(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	st := VertexSuperTree(MustVertexField(b.Build(), []float64{3, 2, 1}))
	pp := Persistences(st)
	if len(pp) != 1 {
		t.Fatalf("got %d branches, want 1", len(pp))
	}
	if pp[0].Birth != 3 || pp[0].Death != 1 {
		t.Errorf("branch = %+v, want birth 3 death 1", pp[0])
	}
}

func TestPersistencesEmptyTree(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	st := VertexSuperTree(MustVertexField(g, nil))
	if pp := Persistences(st); pp != nil {
		t.Errorf("persistence of empty tree = %v", pp)
	}
}

func TestPersistencesForest(t *testing.T) {
	// Two disconnected paths: each contributes its own main branch.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	st := VertexSuperTree(MustVertexField(b.Build(), []float64{5, 2, 9, 4}))
	pp := Persistences(st)
	if len(pp) != 2 {
		t.Fatalf("got %d branches, want 2", len(pp))
	}
	if pp[0].Birth != 9 || pp[1].Birth != 5 {
		t.Errorf("births = %g, %g; want 9, 5", pp[0].Birth, pp[1].Birth)
	}
}

func TestPersistencesCountEqualsLeaves(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		f := randomField(seed, 60, 2.0, 8)
		st := VertexSuperTree(f)
		leaves := 0
		for s := int32(0); s < int32(st.Len()); s++ {
			if len(st.Children(s)) == 0 {
				leaves++
			}
		}
		if got := len(Persistences(st)); got != leaves {
			t.Fatalf("seed %d: %d branches for %d leaves", seed, got, leaves)
		}
	}
}

func TestPersistencesNonNegative(t *testing.T) {
	for seed := int64(20); seed < 30; seed++ {
		f := randomField(seed, 50, 2.0, 10)
		for _, pp := range Persistences(VertexSuperTree(f)) {
			if pp.Persistence() < 0 {
				t.Fatalf("seed %d: negative persistence %+v", seed, pp)
			}
			if pp.Birth < pp.Death {
				t.Fatalf("seed %d: birth below death %+v", seed, pp)
			}
		}
	}
}

func TestPersistenceSimplifyRemovesSmallPeak(t *testing.T) {
	// Two peaks of persistence 9 and 5; threshold 6 should flatten the
	// small one and keep the big one.
	f := twoPeakField()
	simp := PersistenceSimplify(f, 6)
	// Vertex 5 (the small peak top, scalar 6) must be clamped to the
	// death value 1.
	if simp.Values[5] > 1 {
		t.Errorf("small peak top still at %g, want clamped to 1", simp.Values[5])
	}
	// The big peak is untouched.
	if simp.Values[1] != 10 {
		t.Errorf("big peak top changed to %g", simp.Values[1])
	}
	// Resulting terrain has one branch above threshold.
	st := VertexSuperTree(simp)
	pp := Persistences(st)
	big := 0
	for _, p := range pp {
		if p.Persistence() >= 6 {
			big++
		}
	}
	if big != 1 {
		t.Errorf("%d persistent branches after simplify, want 1", big)
	}
}

func TestPersistenceSimplifyIdempotentAtZero(t *testing.T) {
	f := twoPeakField()
	simp := PersistenceSimplify(f, 0)
	for v := range f.Values {
		if simp.Values[v] != f.Values[v] {
			t.Fatalf("threshold 0 changed vertex %d: %g -> %g", v, f.Values[v], simp.Values[v])
		}
	}
}

func TestPersistenceSimplifyMonotone(t *testing.T) {
	// Simplification never raises values.
	for seed := int64(0); seed < 8; seed++ {
		f := randomField(seed, 50, 2.0, 12)
		simp := PersistenceSimplify(f, 3)
		for v := range f.Values {
			if simp.Values[v] > f.Values[v] {
				t.Fatalf("seed %d: vertex %d raised %g -> %g", seed, v, f.Values[v], simp.Values[v])
			}
		}
	}
}

func TestPersistenceSimplifyReducesPeakCount(t *testing.T) {
	f := randomField(7, 200, 2.0, 40)
	before := VertexSuperTree(f)
	after := VertexSuperTree(PersistenceSimplify(f, 10))
	countHigh := func(st *SuperTree) int {
		n := 0
		for _, pp := range Persistences(st) {
			if pp.Persistence() >= 10 {
				n++
			}
		}
		return n
	}
	b, a := len(Persistences(before)), len(Persistences(after))
	if a > b {
		t.Errorf("simplification increased branch count %d -> %d", b, a)
	}
	// No branch of persistence in (0, 10) should survive... weaker,
	// robust check: high-persistence count does not grow.
	if countHigh(after) > countHigh(before) {
		t.Error("simplification created new persistent branches")
	}
}

// TestMaxTopOf: PersistenceSimplify reads subtree maxima from the
// array persistences computes.
func TestMaxTopOf(t *testing.T) {
	st := VertexSuperTree(twoPeakField())
	roots := st.Roots()
	if len(roots) != 1 {
		t.Fatal("want single root")
	}
	if _, top := persistences(st); top[roots[0]] != 10 {
		t.Errorf("subtree top of the root = %g, want 10", top[roots[0]])
	}
}

// combField is a spine p_i = i (i = 1..k, vertices 0..k-1) with one
// pendant leaf of value 2k-i+1 (vertex k+i-1) per spine vertex: every
// branch walk checks a sibling holding the whole rest of the comb, so
// recomputing subtree maxima per check would be quadratic.
func combField(k int) *VertexField {
	b := graph.NewBuilder(2 * k)
	values := make([]float64, 2*k)
	for i := 1; i <= k; i++ {
		values[i-1] = float64(i)
		values[k+i-1] = float64(2*k - i + 1)
		b.AddEdge(int32(i-1), int32(k+i-1))
		if i > 1 {
			b.AddEdge(int32(i-2), int32(i-1))
		}
	}
	return MustVertexField(b.Build(), values)
}

// TestPersistenceSimplifyComb pins the comb's fully simplified field
// and runs a comb large enough that a quadratic walk would take
// seconds.
func TestPersistenceSimplifyComb(t *testing.T) {
	got := PersistenceSimplify(combField(5), math.Inf(1)).Values
	want := []float64{1, 1, 2, 3, 4, 1, 1, 2, 3, 4}
	if !slices.Equal(got, want) {
		t.Fatalf("comb k=5 simplified to %v, want %v", got, want)
	}
	big := PersistenceSimplify(combField(20000), math.Inf(1)).Values
	if big[0] != 1 || big[20000] != 1 || big[39999] != 19999 {
		t.Fatalf("comb k=20000: root and leaves simplified to %g, %g, %g, want 1, 1, 19999", big[0], big[20000], big[39999])
	}
}
