package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// randomField builds a random graph with nVert vertices, approximately
// density*nVert edges, and integer-ish scalar values drawn from
// [0, valueRange) so duplicates are common (exercising Algorithm 2).
func randomField(seed int64, nVert int, density float64, valueRange int) *VertexField {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(nVert)
	nEdges := int(density * float64(nVert))
	for i := 0; i < nEdges; i++ {
		b.AddEdge(int32(rng.Intn(nVert)), int32(rng.Intn(nVert)))
	}
	g := b.Build()
	values := make([]float64, nVert)
	for i := range values {
		values[i] = float64(rng.Intn(valueRange))
	}
	return MustVertexField(g, values)
}

func randomEdgeField(seed int64, nVert int, density float64, valueRange int) *EdgeField {
	vf := randomField(seed, nVert, density, valueRange)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	values := make([]float64, vf.G.NumEdges())
	for i := range values {
		values[i] = float64(rng.Intn(valueRange))
	}
	return MustEdgeField(vf.G, values)
}

func TestNewVertexFieldLengthMismatch(t *testing.T) {
	g := graph.NewBuilder(3).Build()
	if _, err := NewVertexField(g, []float64{1, 2}); err == nil {
		t.Error("want error for length mismatch")
	}
}

func TestNewVertexFieldNaN(t *testing.T) {
	g := graph.NewBuilder(2).Build()
	nan := 0.0
	nan /= nan
	if _, err := NewVertexField(g, []float64{1, nan}); err == nil {
		t.Error("want error for NaN scalar")
	}
}

func TestNewEdgeFieldLengthMismatch(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	g := b.Build()
	if _, err := NewEdgeField(g, []float64{1, 2}); err == nil {
		t.Error("want error for length mismatch")
	}
}

func TestFieldMinMax(t *testing.T) {
	g := graph.NewBuilder(3).Build()
	f := MustVertexField(g, []float64{3, -1, 2})
	if f.Min() != -1 || f.Max() != 3 {
		t.Errorf("Min=%g Max=%g, want -1, 3", f.Min(), f.Max())
	}
}

func TestEmptyFieldTree(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	f := MustVertexField(g, nil)
	tr := BuildVertexTree(f)
	if tr.Len() != 0 {
		t.Fatalf("tree of empty field has %d nodes", tr.Len())
	}
	st := Postprocess(tr)
	if st.Len() != 0 {
		t.Fatalf("super tree of empty field has %d nodes", st.Len())
	}
}

func TestSingleVertexTree(t *testing.T) {
	g := graph.NewBuilder(1).Build()
	f := MustVertexField(g, []float64{7})
	st := VertexSuperTree(f)
	if st.Len() != 1 || st.Scalar[0] != 7 {
		t.Fatalf("super tree = %+v, want single node of scalar 7", st)
	}
	comps := st.ComponentsAt(5)
	if len(comps) != 1 || len(comps[0]) != 1 {
		t.Errorf("ComponentsAt(5) = %v, want one singleton", comps)
	}
	if len(st.ComponentsAt(8)) != 0 {
		t.Error("ComponentsAt(8) should be empty")
	}
}

func TestDisconnectedGraphMakesForest(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	// 4, 5 isolated.
	g := b.Build()
	f := MustVertexField(g, []float64{3, 1, 4, 1, 5, 9})
	tr := BuildVertexTree(f)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Roots()) != 4 {
		t.Errorf("roots = %v, want 4 (two pairs + two isolated)", tr.Roots())
	}
}

func TestTreeMonotoneAlongParents(t *testing.T) {
	f := randomField(7, 80, 2.5, 6)
	tr := BuildVertexTree(f)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, p := range tr.Parent {
		if p >= 0 && tr.Scalar[i] < tr.Scalar[p] {
			t.Fatalf("node %d scalar below parent", i)
		}
	}
}

func TestTreeDepthConsistent(t *testing.T) {
	f := randomField(11, 50, 2, 5)
	tr := BuildVertexTree(f)
	depth := tr.Depth()
	for i, p := range tr.Parent {
		if p < 0 {
			if depth[i] != 0 {
				t.Errorf("root %d has depth %d", i, depth[i])
			}
		} else if depth[i] != depth[p]+1 {
			t.Errorf("node %d depth %d, parent depth %d", i, depth[i], depth[p])
		}
	}
}

func TestSuperTreeComponentsMatchOracleRandom(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		f := randomField(seed, 60, 2.0, 5)
		st := VertexSuperTree(f)
		if err := st.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for alpha := 0.0; alpha <= 5.0; alpha += 0.5 {
			got := st.ComponentsAt(alpha)
			want := BruteForceComponents(f, alpha)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d α=%g: tree %v, oracle %v", seed, alpha, got, want)
			}
		}
	}
}

func TestSuperTreeMCCMatchesOracleRandom(t *testing.T) {
	for seed := int64(30); seed < 40; seed++ {
		f := randomField(seed, 40, 2.2, 4)
		st := VertexSuperTree(f)
		for v := int32(0); v < int32(f.G.NumVertices()); v++ {
			got := st.MCC(v)
			want := BruteForceMCC(f, v)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: MCC(%d) = %v, want %v", seed, v, got, want)
			}
		}
	}
}

func TestTheorem1EveryComponentIsAnMCC(t *testing.T) {
	// Theorem 1: every maximal α-component C equals MCC(v) for the
	// vertex v of minimum scalar in C.
	f := randomField(99, 50, 2.0, 5)
	for alpha := 0.0; alpha <= 5.0; alpha += 1.0 {
		for _, comp := range BruteForceComponents(f, alpha) {
			minV := comp[0]
			for _, v := range comp {
				if f.Values[v] < f.Values[minV] {
					minV = v
				}
			}
			mcc := BruteForceMCC(f, minV)
			// MCC(minV) uses α = minV's scalar, which may be above the
			// query α; the theorem asserts equality when α equals the
			// component's own min scalar.
			tight := BruteForceComponents(f, f.Values[minV])
			found := false
			for _, tc := range tight {
				if reflect.DeepEqual(tc, mcc) {
					found = true
				}
			}
			if !found {
				t.Fatalf("MCC(%d) = %v not among tight components", minV, mcc)
			}
		}
	}
}

func TestTheorem2EqualScalarSharedMCC(t *testing.T) {
	// Theorem 2: if v.scalar == v'.scalar and MCC(v) contains v', then
	// MCC(v) == MCC(v').
	f := randomField(123, 60, 2.5, 4)
	for v := int32(0); v < int32(f.G.NumVertices()); v++ {
		mccV := BruteForceMCC(f, v)
		for _, u := range mccV {
			if u != v && f.Values[u] == f.Values[v] {
				mccU := BruteForceMCC(f, u)
				if !reflect.DeepEqual(mccV, mccU) {
					t.Fatalf("MCC(%d) = %v but MCC(%d) = %v", v, mccV, u, mccU)
				}
			}
		}
	}
}

func TestTheorem3OverlappingComponentsNest(t *testing.T) {
	// Theorem 3: two maximal components that touch must nest.
	f := randomField(321, 50, 2.0, 4)
	type comp struct {
		set   map[int32]bool
		items []int32
	}
	var all []comp
	for alpha := 0.0; alpha <= 4.0; alpha += 1.0 {
		for _, c := range BruteForceComponents(f, alpha) {
			set := make(map[int32]bool, len(c))
			for _, v := range c {
				set[v] = true
			}
			all = append(all, comp{set, c})
		}
	}
	connected := func(a, b comp) bool {
		for v := range a.set {
			if b.set[v] {
				return true
			}
			for _, u := range f.G.Neighbors(v) {
				if b.set[u] {
					return true
				}
			}
		}
		return false
	}
	subset := func(a, b comp) bool {
		for v := range a.set {
			if !b.set[v] {
				return false
			}
		}
		return true
	}
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			if connected(all[i], all[j]) {
				if !subset(all[i], all[j]) && !subset(all[j], all[i]) {
					t.Fatalf("components %v and %v touch but do not nest",
						all[i].items, all[j].items)
				}
			}
		}
	}
}

func TestEdgeTreeOptimizedMatchesNaive(t *testing.T) {
	// The optimized Algorithm 3 and the naive dual-graph method must
	// induce identical component structure at every α.
	for seed := int64(0); seed < 15; seed++ {
		f := randomEdgeField(seed, 30, 2.5, 4)
		stFast := Postprocess(BuildEdgeTree(f))
		stNaive := Postprocess(BuildEdgeTreeNaive(f))
		for alpha := 0.0; alpha <= 4.0; alpha += 0.5 {
			got := stFast.ComponentsAt(alpha)
			want := stNaive.ComponentsAt(alpha)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d α=%g: optimized %v, naive %v", seed, alpha, got, want)
			}
		}
	}
}

func TestEdgeSuperTreeMatchesOracle(t *testing.T) {
	for seed := int64(50); seed < 65; seed++ {
		f := randomEdgeField(seed, 30, 2.5, 5)
		st := EdgeSuperTree(f)
		if err := st.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for alpha := 0.0; alpha <= 5.0; alpha += 0.5 {
			got := st.ComponentsAt(alpha)
			want := BruteForceEdgeComponents(f, alpha)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d α=%g: tree %v, oracle %v", seed, alpha, got, want)
			}
		}
	}
}

func TestDualGraphStructure(t *testing.T) {
	// Triangle: 3 edges, each pair shares a vertex → dual is K3.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	g := b.Build()
	dual := DualGraph(g)
	if dual.NumVertices() != 3 || dual.NumEdges() != 3 {
		t.Fatalf("dual of triangle: V=%d E=%d, want 3, 3", dual.NumVertices(), dual.NumEdges())
	}
	// Path 0-1-2-3: edges e0=(0,1), e1=(1,2), e2=(2,3); e0~e1, e1~e2.
	b2 := graph.NewBuilder(4)
	b2.AddEdge(0, 1)
	b2.AddEdge(1, 2)
	b2.AddEdge(2, 3)
	dual2 := DualGraph(b2.Build())
	if dual2.NumEdges() != 2 {
		t.Fatalf("dual of P4 has %d edges, want 2", dual2.NumEdges())
	}
}

func TestEdgeTreeEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(4).Build()
	f := MustEdgeField(g, nil)
	tr := BuildEdgeTree(f)
	if tr.Len() != 0 {
		t.Fatalf("edge tree of edgeless graph has %d nodes", tr.Len())
	}
}

func TestSubtreeSizeMatchesSubtreeItems(t *testing.T) {
	f := randomField(77, 70, 2.0, 5)
	st := VertexSuperTree(f)
	sizes := st.SubtreeSize()
	for s := int32(0); s < int32(st.Len()); s++ {
		if int(sizes[s]) != len(st.SubtreeItems(s)) {
			t.Fatalf("super node %d: size %d, items %d", s, sizes[s], len(st.SubtreeItems(s)))
		}
	}
}

func TestDiscretizeBasics(t *testing.T) {
	vals := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q := Discretize(vals, 2)
	// Two bins over [0,10]: midpoints 2.5 and 7.5.
	for i, v := range vals {
		want := 2.5
		if v >= 5 {
			want = 7.5
		}
		if q[i] != want {
			t.Errorf("Discretize[%d] = %g, want %g", i, q[i], want)
		}
	}
}

func TestDiscretizePreservesOrder(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if v == v && v > -1e12 && v < 1e12 { // finite, non-NaN
				vals = append(vals, v)
			}
		}
		q := Discretize(vals, 7)
		for i := range vals {
			for j := range vals {
				if vals[i] <= vals[j] && q[i] > q[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// requireOrderPreserved fails unless v1 <= v2 implies q(v1) <= q(v2).
func requireOrderPreserved(t *testing.T, name string, vals, q []float64) {
	t.Helper()
	for i := range vals {
		for j := range vals {
			if vals[i] <= vals[j] && !(q[i] <= q[j]) {
				t.Fatalf("%s(%v) = %v: %g <= %g but %g > %g", name, vals, q, vals[i], vals[j], q[i], q[j])
			}
		}
	}
}

func TestDiscretizePreservesOrderWithInfinities(t *testing.T) {
	special := []float64{math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64}
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 500; trial++ {
		vals := make([]float64, 1+rng.Intn(8))
		for i := range vals {
			if rng.Intn(2) == 0 {
				vals[i] = special[rng.Intn(len(special))]
			} else {
				vals[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(600)-300))
			}
		}
		bins := 1 + rng.Intn(9)
		requireOrderPreserved(t, "Discretize", vals, Discretize(vals, bins))
		requireOrderPreserved(t, "DiscretizeLog", vals, DiscretizeLog(vals, bins))
	}
}

func TestDiscretizeInfiniteSpanRegressions(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name      string
		got, want []float64
	}{
		// Infinities no longer stretch the bins: the finite values are
		// binned over [1, 2] and +Inf stays on top.
		{"Discretize", Discretize([]float64{1, 2, inf}, 4), []float64{1.125, 1.875, inf}},
		// A span wider than MaxFloat64 no longer overflows the width.
		{"Discretize", Discretize([]float64{-math.MaxFloat64, math.MaxFloat64}, 4),
			[]float64{-0.75 * math.MaxFloat64, 0.75 * math.MaxFloat64}},
		{"DiscretizeLog", DiscretizeLog([]float64{1, 2, inf}, 4),
			[]float64{math.Exp(math.Ln2 / 8), math.Exp(7 * math.Ln2 / 8), inf}},
	}
	for _, c := range cases {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestDiscretizeConstantField(t *testing.T) {
	vals := []float64{5, 5, 5}
	q := Discretize(vals, 4)
	for _, v := range q {
		if v != 5 {
			t.Errorf("constant field changed: %v", q)
		}
	}
}

func TestDiscretizeSingleBin(t *testing.T) {
	q := Discretize([]float64{1, 2, 3}, 1)
	if q[0] != q[1] || q[1] != q[2] {
		t.Errorf("single bin should collapse all values: %v", q)
	}
}

func TestDiscretizePanicsOnZeroBins(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for bins=0")
		}
	}()
	Discretize([]float64{1}, 0)
}

func TestDiscretizeLogHeavyTail(t *testing.T) {
	vals := []float64{1, 2, 4, 8, 16, 32, 64, 128}
	q := DiscretizeLog(vals, 4)
	distinct := map[float64]bool{}
	for _, v := range q {
		distinct[v] = true
	}
	if len(distinct) != 4 {
		t.Errorf("log bins over powers of two: %d distinct values, want 4 (%v)", len(distinct), q)
	}
	// Order preserved.
	for i := 1; i < len(q); i++ {
		if q[i] < q[i-1] {
			t.Errorf("DiscretizeLog broke monotonicity at %d: %v", i, q)
		}
	}
}

func TestSimplifyReducesSuperTreeSize(t *testing.T) {
	f := randomField(5, 500, 3.0, 1000) // near-distinct values
	full := VertexSuperTree(f)
	simp := VertexSuperTree(SimplifyVertexField(f, 8))
	if simp.Len() >= full.Len() {
		t.Errorf("simplified tree has %d nodes, full has %d; want reduction",
			simp.Len(), full.Len())
	}
	if err := simp.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSimplifiedComponentsCoarsen(t *testing.T) {
	// Every component of the simplified field is a union of original
	// components at the corresponding (bin lower bound) threshold.
	f := randomField(15, 100, 2.0, 50)
	sf := SimplifyVertexField(f, 5)
	st := VertexSuperTree(sf)
	for _, r := range st.ComponentRootsAt(sf.Min()) {
		items := st.SubtreeItems(r)
		// The items of the coarse component must be a disjoint union of
		// brute-force fine components at some α <= every member value;
		// sanity-check connectivity: the items form a connected set in
		// the subgraph induced by values >= min member value (coarse).
		minV := items[0]
		for _, v := range items {
			if sf.Values[v] < sf.Values[minV] {
				minV = v
			}
		}
		comps := BruteForceComponents(sf, sf.Values[minV])
		found := false
		for _, c := range comps {
			if reflect.DeepEqual(c, items) {
				found = true
			}
		}
		if !found {
			t.Fatalf("coarse component %v not found among oracle components", items)
		}
	}
}

func TestQuickVertexTreePipeline(t *testing.T) {
	// Property: for arbitrary random graphs + duplicate-heavy scalars,
	// the full pipeline validates and matches the oracle at the value
	// thresholds themselves (where off-by-one errors would appear).
	f := func(seed int64) bool {
		fld := randomField(seed, 35, 1.8, 3)
		st := VertexSuperTree(fld)
		if st.Validate() != nil {
			return false
		}
		for _, alpha := range []float64{0, 1, 2} {
			if !reflect.DeepEqual(st.ComponentsAt(alpha), BruteForceComponents(fld, alpha)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickEdgeTreePipeline(t *testing.T) {
	f := func(seed int64) bool {
		fld := randomEdgeField(seed, 25, 2.0, 3)
		st := EdgeSuperTree(fld)
		if st.Validate() != nil {
			return false
		}
		for _, alpha := range []float64{0, 1, 2} {
			if !reflect.DeepEqual(st.ComponentsAt(alpha), BruteForceEdgeComponents(fld, alpha)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAblationTwinsAgreeWithPrimary(t *testing.T) {
	// The naive-union-find and map-graph ablation variants must yield
	// identical component structure.
	f := randomField(202, 60, 2.2, 5)
	stPrimary := VertexSuperTree(f)
	stNaiveUF := Postprocess(buildVertexTreeNaiveUF(f))
	mg := graph.NewMapGraph(f.G)
	stMap := Postprocess(buildTreeOnMapGraph(mg.Adj, f.Values))
	for alpha := 0.0; alpha <= 5.0; alpha += 1.0 {
		want := stPrimary.ComponentsAt(alpha)
		if got := stNaiveUF.ComponentsAt(alpha); !reflect.DeepEqual(got, want) {
			t.Fatalf("naive-UF ablation diverges at α=%g", alpha)
		}
		if got := stMap.ComponentsAt(alpha); !reflect.DeepEqual(got, want) {
			t.Fatalf("map-graph ablation diverges at α=%g", alpha)
		}
	}
}
