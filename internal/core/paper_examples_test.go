package core

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
)

// figure2Field reconstructs a scalar graph consistent with the paper's
// Figure 2: nine vertices v1..v9 (0-indexed here as 0..8) where
//   - C1 = {v1,v2,v3,v5} and C2 = {v4,v6} are the maximal
//     2.5-connected components,
//   - C3 = {v1..v7} is a maximal 2-connected component containing C1,
//   - the scalar tree is rooted at n9 (the minimum-scalar vertex).
func figure2Field() *VertexField {
	b := graph.NewBuilder(9)
	// C1 internals.
	b.AddEdge(0, 1) // v1-v2
	b.AddEdge(1, 2) // v2-v3
	b.AddEdge(2, 4) // v3-v5
	b.AddEdge(0, 4) // v1-v5
	// C2 internals.
	b.AddEdge(3, 5) // v4-v6
	// v7 bridges C1 and C2 at scalar 2.
	b.AddEdge(4, 6) // v5-v7
	b.AddEdge(6, 5) // v7-v6
	// Low tail down to v9.
	b.AddEdge(6, 7) // v7-v8
	b.AddEdge(7, 8) // v8-v9
	g := b.Build()
	//                 v1 v2 v3  v4  v5  v6  v7 v8   v9
	values := []float64{5, 4, 3, 4.5, 3.5, 2.6, 2, 1.5, 1}
	return MustVertexField(g, values)
}

func TestPaperFigure2TreeRoot(t *testing.T) {
	f := figure2Field()
	tr := BuildVertexTree(f)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	roots := tr.Roots()
	if len(roots) != 1 {
		t.Fatalf("roots = %v, want exactly one", roots)
	}
	if roots[0] != 8 {
		t.Errorf("root = n%d, want n9 (index 8), the minimum-scalar vertex", roots[0]+1)
	}
}

func TestPaperFigure2NodeVertexCorrespondence(t *testing.T) {
	// Property 1: node i corresponds to vertex i with the same scalar.
	f := figure2Field()
	tr := BuildVertexTree(f)
	if tr.Len() != f.G.NumVertices() {
		t.Fatalf("tree has %d nodes for %d vertices", tr.Len(), f.G.NumVertices())
	}
	for i, s := range tr.Scalar {
		if s != f.Values[i] {
			t.Errorf("node %d scalar %g, want %g", i, s, f.Values[i])
		}
	}
}

func TestPaperFigure2MaximalComponents25(t *testing.T) {
	f := figure2Field()
	st := VertexSuperTree(f)
	comps := st.ComponentsAt(2.5)
	want := [][]int32{
		{0, 1, 2, 4}, // C1 = v1,v2,v3,v5
		{3, 5},       // C2 = v4,v6
	}
	if !reflect.DeepEqual(comps, want) {
		t.Errorf("ComponentsAt(2.5) = %v, want %v", comps, want)
	}
}

func TestPaperFigure2MaximalComponent2(t *testing.T) {
	f := figure2Field()
	st := VertexSuperTree(f)
	comps := st.ComponentsAt(2)
	want := [][]int32{{0, 1, 2, 3, 4, 5, 6}} // C3 = v1..v7
	if !reflect.DeepEqual(comps, want) {
		t.Errorf("ComponentsAt(2) = %v, want %v", comps, want)
	}
}

func TestPaperFigure2ContainmentProperty3(t *testing.T) {
	// C1 ⊆ C3 must be mirrored by subtree containment.
	f := figure2Field()
	st := VertexSuperTree(f)
	// Locate component roots.
	var c1Root, c3Root int32 = -1, -1
	for _, r := range st.ComponentRootsAt(2.5) {
		items := st.SubtreeItems(r)
		if len(items) == 4 {
			c1Root = r
		}
	}
	for _, r := range st.ComponentRootsAt(2) {
		c3Root = r
	}
	if c1Root < 0 || c3Root < 0 {
		t.Fatal("failed to locate C1 or C3 roots")
	}
	// Walk up from C1's root; C3's root must be an ancestor-or-self.
	found := false
	for s := c1Root; s >= 0; s = st.Parent[s] {
		if s == c3Root {
			found = true
			break
		}
	}
	if !found {
		t.Error("subtree of C1 is not contained in subtree of C3")
	}
}

func TestPaperFigure2DisconnectionProperty4(t *testing.T) {
	// C1 and C2 are not connected at α=2.5; their subtrees must be
	// disjoint (neither root an ancestor of the other).
	f := figure2Field()
	st := VertexSuperTree(f)
	roots := st.ComponentRootsAt(2.5)
	if len(roots) != 2 {
		t.Fatalf("component roots at 2.5 = %v, want 2", roots)
	}
	isAncestor := func(anc, node int32) bool {
		for s := node; s >= 0; s = st.Parent[s] {
			if s == anc {
				return true
			}
		}
		return false
	}
	if isAncestor(roots[0], roots[1]) || isAncestor(roots[1], roots[0]) {
		t.Error("disconnected components have nested subtrees")
	}
}

func TestPaperFigure2SubtreeIsMCC(t *testing.T) {
	// Proposition 1: with distinct scalar values, the subtree rooted at
	// n(v) corresponds to MCC(v).
	f := figure2Field()
	tr := BuildVertexTree(f)
	for v := int32(0); v < int32(f.G.NumVertices()); v++ {
		got := tr.SubtreeItems(v)
		sortInt32s(got)
		want := oracle.MCC(f.G, f.Values, false, v)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("subtree(n%d) = %v, MCC(v%d) = %v", v+1, got, v+1, want)
		}
	}
}

// figure3Field reconstructs the paper's Figure 3: five vertices where
// v1, v2 have scalar 2 and v3, v4, v5 share scalar 1, arranged so that
// Algorithm 1 produces a subtree ST(n1, n3) whose component C(v1,v3)
// is NOT a maximal α-connected component, and Algorithm 2 must merge
// n3, n4, n5 into one super node.
func figure3Field() *VertexField {
	b := graph.NewBuilder(5)
	b.AddEdge(0, 2) // v1-v3
	b.AddEdge(1, 3) // v2-v4
	b.AddEdge(2, 4) // v3-v5
	b.AddEdge(3, 4) // v4-v5
	g := b.Build()
	return MustVertexField(g, []float64{2, 2, 1, 1, 1})
}

func TestPaperFigure3RawTreeViolatesProperty2(t *testing.T) {
	f := figure3Field()
	tr := BuildVertexTree(f)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// The raw subtree rooted at n3 is {n1, n3} = C(v1, v3).
	sub := tr.SubtreeItems(2)
	sortInt32s(sub)
	if !reflect.DeepEqual(sub, []int32{0, 2}) {
		t.Fatalf("subtree(n3) = %v, want [0 2] per the figure", sub)
	}
	// ... but C(v1, v3) is not a maximal 1-connected component: the
	// maximal 1-component containing v3 is the whole graph.
	mcc := oracle.MCC(f.G, f.Values, false, 2)
	if reflect.DeepEqual(sub, mcc) {
		t.Fatal("expected raw tree to violate Property 2 on this input")
	}
}

func TestPaperFigure3SuperTreeMergesEqualScalars(t *testing.T) {
	f := figure3Field()
	st := VertexSuperTree(f)
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	// Exactly 3 super nodes: {v3,v4,v5} at scalar 1, {v1} and {v2} at 2.
	if st.Len() != 3 {
		t.Fatalf("super tree has %d nodes, want 3", st.Len())
	}
	rootSuper := st.NodeOf[2] // v3's super node
	if rootSuper != st.NodeOf[3] || rootSuper != st.NodeOf[4] {
		t.Error("v3, v4, v5 should share one super node")
	}
	if st.Parent[rootSuper] != -1 {
		t.Error("the merged scalar-1 super node should be the root")
	}
	if st.NodeOf[0] == st.NodeOf[1] {
		t.Error("v1 and v2 should be in distinct super nodes")
	}
	if st.Parent[st.NodeOf[0]] != rootSuper || st.Parent[st.NodeOf[1]] != rootSuper {
		t.Error("v1's and v2's super nodes should hang off the merged root")
	}
}

func TestPaperFigure3SuperTreeProposition2(t *testing.T) {
	// Proposition 2: after merging, the subtree rooted at the merged
	// node corresponds to MCC(v) for its members.
	f := figure3Field()
	st := VertexSuperTree(f)
	for v := int32(0); v < 5; v++ {
		got := st.MCC(v)
		want := oracle.MCC(f.G, f.Values, false, v)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("super MCC(v%d) = %v, want %v", v+1, got, want)
		}
	}
}

func TestPaperFigure3ComponentsMatchOracle(t *testing.T) {
	f := figure3Field()
	st := VertexSuperTree(f)
	for _, alpha := range []float64{0.5, 1, 1.5, 2, 2.5} {
		got := st.ComponentsAt(alpha)
		want := oracle.Components(f.G, f.Values, false, alpha)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("α=%g: tree components %v, oracle %v", alpha, got, want)
		}
	}
}

func sortInt32s(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
