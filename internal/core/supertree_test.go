package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"testing"

	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/measures"
)

// equalTrees asserts that the flat super tree agrees with the
// original Algorithm 2 on every node, item, and cut height.
func equalTrees(t *testing.T, label string, raw *Tree) {
	t.Helper()
	got, want := Postprocess(raw), postprocessOracle(raw)
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	wantCh := treeChildrenOracle(raw)
	for i, c := range raw.Children() {
		if !slices.Equal(c, wantCh[i]) {
			t.Fatalf("%s: raw Children(%d) = %v, want %v", label, i, c, wantCh[i])
		}
	}
	if !slices.Equal(got.Parent, want.Parent) || !slices.Equal(got.Scalar, want.Scalar) ||
		!slices.Equal(got.NodeOf, want.NodeOf) {
		t.Fatalf("%s: Parent/Scalar/NodeOf differ from the oracle", label)
	}
	if got.Len() != len(want.Members) {
		t.Fatalf("%s: %d super nodes, oracle %d", label, got.Len(), len(want.Members))
	}
	if !slices.Equal(got.SubtreeSize(), want.SubtreeSize()) {
		t.Fatalf("%s: SubtreeSize = %v, want %v", label, got.SubtreeSize(), want.SubtreeSize())
	}
	for s := int32(0); s < int32(got.Len()); s++ {
		if !slices.Equal(got.Members(s), want.Members[s]) {
			t.Fatalf("%s: Members(%d) = %v, want %v", label, s, got.Members(s), want.Members[s])
		}
		if !slices.Equal(got.Children(s), want.Children()[s]) {
			t.Fatalf("%s: Children(%d) = %v, want %v", label, s, got.Children(s), want.Children()[s])
		}
		if g, w := got.SubtreeItems(s), want.SubtreeItems(s); !slices.Equal(g, w) {
			t.Fatalf("%s: SubtreeItems(%d) = %v, want %v", label, s, g, w)
		}
	}
	for item := int32(0); item < int32(got.NumItems()); item++ {
		if g, w := got.MCC(item), want.MCC(item); !slices.Equal(g, w) {
			t.Fatalf("%s: MCC(%d) = %v, want %v", label, item, g, w)
		}
	}
	alphas := []float64{math.Inf(-1), math.Inf(1)}
	for _, v := range got.Scalar {
		alphas = append(alphas, v, v+0.5)
	}
	for _, alpha := range alphas {
		g, w := got.ComponentsAt(alpha), want.ComponentsAt(alpha)
		if !slices.EqualFunc(g, w, slices.Equal[[]int32]) {
			t.Fatalf("%s: ComponentsAt(%g) = %v, want %v", label, alpha, g, w)
		}
	}
}

// TestSuperTreeMatchesOracleFlat drives vertex and edge trees with
// heavy ties, isolated items, and many roots (sparse random graphs
// leave vertices and whole components disconnected) through both
// Algorithm 2 implementations.
func TestSuperTreeMatchesOracleFlat(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		density := []float64{0.3, 1, 2.5}[seed%3]
		valueRange := []int{1, 2, 4, 16}[seed%4]
		vf := randomField(seed, 30+int(seed)*5, density, valueRange)
		equalTrees(t, "vertex", BuildVertexTree(vf))
		ef := randomEdgeField(seed, 30+int(seed)*5, density, valueRange)
		equalTrees(t, "edge", BuildEdgeTree(ef))
	}
	equalTrees(t, "empty", BuildVertexTree(MustVertexField(graph.NewBuilder(0).Build(), nil)))
}

// TestSuperTreeBytesGolden pins the SFST bytes of three real measure
// trees, so stored and peer-held snapshots keep decoding and
// answering identically. The first hash of each pair pins the tree's
// numbering: it is the hash the version 1 format (header, parents,
// scalars, item mapping) had before the index was stored, taken over
// the same arrays.
func TestSuperTreeBytesGolden(t *testing.T) {
	g, err := datasets.Generate("GrQc", 0.25, 42)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string][2]string{
		"kcore":      {"42f5d145e38f40d08a12d2084e9b5e61b73ea2b39d9967e27dd7954155454f7f", "c8b3922adc8458139d50975ab9e87a19d6622f9a537aa4311d261ff73824f677"},
		"clustering": {"793c716f07d1a3e4c8e4bf2aa2cd0fce3c4b4097447059e6d1235bdd756cd7b8", "da5b6365b960faecdd24dd7463113f87c88baa3ef431596a0e56d695113d1b39"},
		"ktruss":     {"a61b1534e32770406af83bbb6bad362c75a64d48d0b985e82e6cce42f445d3a3", "8f4677946fa944621a140f2bd123dee8dc4e4e4b715d38d53e7f6026d53d4578"},
	}
	for name, want := range golden {
		spec, ok := measures.Lookup(name)
		if !ok {
			t.Fatalf("measure %q not registered", name)
		}
		values := spec.Compute(g)
		var st *SuperTree
		if spec.Kind == measures.Edge {
			st = EdgeSuperTree(MustEdgeField(g, values))
		} else {
			st = VertexSuperTree(MustVertexField(g, values))
		}
		var v1 bytes.Buffer
		v1.WriteString(treeMagic)
		v1.WriteByte(1)
		for _, v := range []any{uint32(st.Len()), uint32(st.NumItems()), st.Parent, st.Scalar, st.NodeOf} {
			_ = binary.Write(&v1, binary.LittleEndian, v) // bytes.Buffer writes cannot fail
		}
		var buf bytes.Buffer
		if _, err := st.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		for i, b := range [][]byte{v1.Bytes(), buf.Bytes()} {
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != want[i] {
				t.Errorf("%s: SFST version %d sha256 %s, want %s", name, i+1, got, want[i])
			}
		}
	}
}

// rawTreeBytes encodes arbitrary super tree arrays in the SFST layout,
// bypassing Postprocess, to hand the reader trees it never wrote. The
// stored index is the one the arrays build when their links are
// valid, and zeros otherwise.
func rawTreeBytes(parent []int32, scalar []float64, nodeOf []int32) []byte {
	st := &SuperTree{Parent: parent, Scalar: scalar, NodeOf: nodeOf}
	if st.validateLinks() == nil {
		st.index()
	} else {
		st.attachIndex(make([]int32, len(nodeOf)), make([]int32, 5*len(parent)+1))
	}
	var buf bytes.Buffer
	buf.WriteString(treeMagic)
	buf.Write([]byte{treeVersion, 0, 0, 0})
	for _, v := range []any{uint32(len(parent)), uint32(len(nodeOf)), scalar, parent, nodeOf, st.flat, st.slab} {
		_ = binary.Write(&buf, binary.LittleEndian, v) // bytes.Buffer writes cannot fail
	}
	return buf.Bytes()
}

// nonTopologicalTree is the chain 0 → 2 → 1 (root first) numbered so
// that node 1's parent, node 2, comes after it. Every scalar and member
// invariant holds, but subtree sizes accumulated in reverse ID order
// would give the root 2 items instead of 3.
var nonTopologicalTree = rawTreeBytes([]int32{-1, 2, 0}, []float64{1, 3, 2}, []int32{0, 1, 2})

// nanTree is a valid two-node chain but for a NaN child scalar, which
// no comparison in the monotonicity check fails.
var nanTree = rawTreeBytes([]int32{-1, 0}, []float64{1, math.NaN()}, []int32{0, 1})

func TestReadSuperTreeRejectsNaN(t *testing.T) {
	for name, data := range map[string][]byte{
		"child": nanTree,
		"root":  rawTreeBytes([]int32{-1}, []float64{math.NaN()}, []int32{0, 0}),
	} {
		if _, err := ReadSuperTree(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: ReadSuperTree accepted a NaN scalar", name)
		}
		if _, err := DecodeSuperTree(data); err == nil {
			t.Errorf("%s: DecodeSuperTree accepted a NaN scalar", name)
		}
	}
}

func TestReadSuperTreeRejectsNonTopologicalParents(t *testing.T) {
	if st, err := ReadSuperTree(bytes.NewReader(nonTopologicalTree)); err == nil {
		t.Fatalf("accepted a tree with Parent[1]=2: sizes %v", st.SubtreeSize())
	}
	st := &SuperTree{
		Parent: []int32{-1, 2, 0},
		Scalar: []float64{1, 3, 2},
		NodeOf: []int32{0, 1, 2},
	}
	if err := st.Validate(); err == nil {
		t.Error("Validate accepted a tree with Parent[1]=2")
	}
	// The same chain numbered parent-first is accepted, with the root's
	// subtree covering all three items.
	st, err := ReadSuperTree(bytes.NewReader(rawTreeBytes([]int32{-1, 0, 1}, []float64{1, 2, 3}, []int32{0, 2, 1})))
	if err != nil {
		t.Fatal(err)
	}
	if got := st.SubtreeSize(); !slices.Equal(got, []int32{3, 2, 1}) {
		t.Errorf("SubtreeSize = %v, want [3 2 1]", got)
	}
	if got := st.MCC(0); !slices.Equal(got, []int32{0, 1, 2}) {
		t.Errorf("MCC(0) = %v, want [0 1 2]", got)
	}
}

// TestPostprocessAllocs gates Algorithm 2 at a constant allocation
// count, whatever the tree's size.
func TestPostprocessAllocs(t *testing.T) {
	for _, n := range []int{1000, 20000} {
		raw := BuildVertexTree(randomField(7, n, 1.5, 8))
		if a := testing.AllocsPerRun(5, func() { Postprocess(raw) }); a > 48 {
			t.Errorf("Postprocess on %d items: %.0f allocs, want <= 48", n, a)
		}
	}
}

// TestReadSuperTreeAllocs gates the SFST decoder at the same
// allocation count for trees of very different super node counts:
// DecodeSuperTree's (see TestDecodeSuperTreeAllocs) plus the header and
// byte buffers and the test's bytes.Reader.
func TestReadSuperTreeAllocs(t *testing.T) {
	const want = 6
	var counts []float64
	for _, n := range []int{100, 20000} {
		st := VertexSuperTree(randomField(8, n, 1.5, 64))
		var buf bytes.Buffer
		if _, err := st.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		counts = append(counts, testing.AllocsPerRun(5, func() {
			if _, err := ReadSuperTree(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		}))
		t.Logf("%d super nodes: %.0f allocs", st.Len(), counts[len(counts)-1])
	}
	if counts[0] != want || counts[1] != want {
		t.Errorf("ReadSuperTree allocs %v, want %d at every size", counts, want)
	}
}

// TestDecodeSuperTreeAllocs is TestReadSuperTreeAllocs for the
// in-memory decoder: the tree, and the int32 slab and flat item array
// of the index it rebuilds to check the stored one; the arrays view
// the 8-aligned input and the index holds no per-node slices.
func TestDecodeSuperTreeAllocs(t *testing.T) {
	const want = 3
	var counts []float64
	for _, n := range []int{100, 20000} {
		st := VertexSuperTree(randomField(8, n, 1.5, 64))
		var buf bytes.Buffer
		if _, err := st.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		counts = append(counts, testing.AllocsPerRun(5, func() {
			if _, err := DecodeSuperTree(data); err != nil {
				t.Fatal(err)
			}
		}))
		t.Logf("%d super nodes: %.0f allocs", st.Len(), counts[len(counts)-1])
	}
	if counts[0] != want || counts[1] != want {
		t.Errorf("DecodeSuperTree allocs %v, want %d at every size", counts, want)
	}
}

// TestSubtreeItemsAllocs: a subtree read is one copy of a contiguous
// range, sorted in place.
func TestSubtreeItemsAllocs(t *testing.T) {
	st := VertexSuperTree(randomField(9, 5000, 2, 8))
	for _, r := range st.Roots() {
		if a := testing.AllocsPerRun(5, func() { st.SubtreeItems(r) }); a != 1 {
			t.Errorf("SubtreeItems(%d): %.0f allocs, want 1", r, a)
		}
	}
}
