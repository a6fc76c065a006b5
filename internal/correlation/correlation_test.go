package correlation

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func lineGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	return b.Build()
}

func randomGraph(seed int64, n int, density float64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < int(density*float64(n)); i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.Build()
}

func TestLCISelfCorrelationIsOne(t *testing.T) {
	g := lineGraph(10)
	s := make([]float64, 10)
	for i := range s {
		s[i] = float64(i * i)
	}
	lci, err := LCI(g, s, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range lci {
		if math.Abs(c-1) > 1e-12 {
			t.Errorf("LCI(S,S)[%d] = %g, want 1", v, c)
		}
	}
}

func TestLCINegatedFieldIsMinusOne(t *testing.T) {
	g := lineGraph(10)
	s := make([]float64, 10)
	neg := make([]float64, 10)
	for i := range s {
		s[i] = float64(i)
		neg[i] = -float64(i)
	}
	lci, err := LCI(g, s, neg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range lci {
		if math.Abs(c+1) > 1e-12 {
			t.Errorf("LCI(S,-S)[%d] = %g, want -1", v, c)
		}
	}
}

func TestLCIConstantFieldIsZero(t *testing.T) {
	g := lineGraph(6)
	s := []float64{1, 2, 3, 4, 5, 6}
	c := []float64{7, 7, 7, 7, 7, 7}
	lci, err := LCI(g, s, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v, x := range lci {
		if x != 0 {
			t.Errorf("LCI with constant field [%d] = %g, want 0", v, x)
		}
	}
}

func TestLCIIsolatedVertexIsZero(t *testing.T) {
	g := graph.NewBuilder(3).Build()
	lci, err := LCI(g, []float64{1, 2, 3}, []float64{3, 2, 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v, x := range lci {
		if x != 0 {
			t.Errorf("isolated LCI[%d] = %g, want 0", v, x)
		}
	}
}

func TestLCILengthMismatch(t *testing.T) {
	g := lineGraph(3)
	if _, err := LCI(g, []float64{1, 2}, []float64{1, 2, 3}, Options{}); err == nil {
		t.Error("want error on field-length mismatch")
	}
}

func TestLCIBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(seed, 30, 2.5)
		si := make([]float64, 30)
		sj := make([]float64, 30)
		for i := range si {
			si[i] = rng.NormFloat64()
			sj[i] = rng.NormFloat64()
		}
		lci, err := LCI(g, si, sj, Options{})
		if err != nil {
			return false
		}
		for _, c := range lci {
			if c < -1-1e-12 || c > 1+1e-12 || math.IsNaN(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLCISymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(seed, 25, 2)
		si := make([]float64, 25)
		sj := make([]float64, 25)
		for i := range si {
			si[i] = rng.Float64()
			sj[i] = rng.Float64()
		}
		a, _ := LCI(g, si, sj, Options{})
		b, _ := LCI(g, sj, si, Options{})
		for v := range a {
			if math.Abs(a[v]-b[v]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLCIInvariantToAffineTransform(t *testing.T) {
	// Pearson correlation is invariant under positive affine maps.
	g := randomGraph(5, 30, 2.5)
	rng := rand.New(rand.NewSource(5))
	si := make([]float64, 30)
	sj := make([]float64, 30)
	sjT := make([]float64, 30)
	for i := range si {
		si[i] = rng.NormFloat64()
		sj[i] = rng.NormFloat64()
		sjT[i] = 3*sj[i] + 11
	}
	a, _ := LCI(g, si, sj, Options{})
	b, _ := LCI(g, si, sjT, Options{})
	for v := range a {
		if math.Abs(a[v]-b[v]) > 1e-9 {
			t.Fatalf("affine transform changed LCI at %d: %g vs %g", v, a[v], b[v])
		}
	}
}

func TestLCIMultiHop(t *testing.T) {
	// On a long path with fields equal on a 2-hop window, the 2-hop LCI
	// must use the wider neighborhood (detectable via variance).
	g := lineGraph(9)
	si := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8}
	sj := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8}
	one, _ := LCI(g, si, sj, Options{Hops: 1})
	two, _ := LCI(g, si, sj, Options{Hops: 2})
	for v := range one {
		if math.Abs(one[v]-1) > 1e-12 || math.Abs(two[v]-1) > 1e-12 {
			t.Fatalf("identical fields should have LCI 1 at every hop count")
		}
	}
}

func TestGCIAveragesLCI(t *testing.T) {
	g := randomGraph(8, 40, 2.5)
	rng := rand.New(rand.NewSource(8))
	si := make([]float64, 40)
	sj := make([]float64, 40)
	for i := range si {
		si[i] = rng.Float64()
		sj[i] = rng.Float64()
	}
	lci, _ := LCI(g, si, sj, Options{})
	var want float64
	for _, c := range lci {
		want += c
	}
	want /= float64(len(lci))
	got, err := GCI(g, si, sj, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("GCI = %g, want %g", got, want)
	}
}

func TestGCISelfIsNearOne(t *testing.T) {
	g := randomGraph(2, 50, 3)
	rng := rand.New(rand.NewSource(2))
	s := make([]float64, 50)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	gci, err := GCI(g, s, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Vertices with degenerate neighborhoods contribute 0, so GCI can
	// fall below 1, but it must be strongly positive.
	if gci < 0.8 {
		t.Errorf("GCI(S,S) = %g, want >= 0.8", gci)
	}
}

func TestGCIEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	gci, err := GCI(g, nil, nil, Options{})
	if err != nil || gci != 0 {
		t.Errorf("GCI on empty graph = %g, %v; want 0, nil", gci, err)
	}
}

func TestOutlierScoresNegateLCI(t *testing.T) {
	lci := []float64{0.5, -0.25, 0}
	out := OutlierScores(lci)
	want := []float64{-0.5, 0.25, 0}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("OutlierScores[%d] = %g, want %g", i, out[i], want[i])
		}
	}
}

func TestEdgeLCISelfIsOne(t *testing.T) {
	g := lineGraph(6)
	s := make([]float64, g.NumEdges())
	for i := range s {
		s[i] = float64(i * i)
	}
	lci, err := EdgeLCI(g, s, s)
	if err != nil {
		t.Fatal(err)
	}
	for e, c := range lci {
		if math.Abs(c-1) > 1e-12 {
			t.Errorf("EdgeLCI(S,S)[%d] = %g, want 1", e, c)
		}
	}
}

func TestEdgeLCILengthMismatch(t *testing.T) {
	g := lineGraph(4)
	if _, err := EdgeLCI(g, []float64{1}, []float64{1, 2, 3}); err == nil {
		t.Error("want error on length mismatch")
	}
}

func TestEdgeLCIBounded(t *testing.T) {
	g := randomGraph(17, 20, 3)
	rng := rand.New(rand.NewSource(17))
	si := make([]float64, g.NumEdges())
	sj := make([]float64, g.NumEdges())
	for i := range si {
		si[i] = rng.NormFloat64()
		sj[i] = rng.NormFloat64()
	}
	lci, err := EdgeLCI(g, si, sj)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range lci {
		if c < -1-1e-12 || c > 1+1e-12 || math.IsNaN(c) {
			t.Fatalf("EdgeLCI out of bounds: %g", c)
		}
	}
}

// pearson is the plain correlation of two equal-length samples: the
// neighborhood correlation LCI and GCI use, over every item.
func pearson(a, b []float64) float64 {
	hood := make([]int32, len(a))
	for i := range hood {
		hood[i] = int32(i)
	}
	return pearsonOver(hood, a, b)
}

func TestPearsonBasics(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{2, 4, 6, 8}
	if p := pearson(a, b); math.Abs(p-1) > 1e-12 {
		t.Errorf("Pearson of proportional = %g, want 1", p)
	}
	c := []float64{8, 6, 4, 2}
	if p := pearson(a, c); math.Abs(p+1) > 1e-12 {
		t.Errorf("Pearson of anti-proportional = %g, want -1", p)
	}
	if p := pearson([]float64{1}, []float64{2}); p != 0 {
		t.Errorf("Pearson of singleton = %g, want 0", p)
	}
}

// TestNaNVertexDoesNotPoisonGCI pins the non-finite-input guard: one
// NaN vertex used to drive its whole neighborhood's LCI — and through
// the mean, the graph-wide GCI — to NaN, because the covII == 0 guard
// never fires on NaN. Poisoned neighborhoods must score the neutral 0
// and GCI must stay finite, for any worker count.
func TestNaNVertexDoesNotPoisonGCI(t *testing.T) {
	g := lineGraph(8)
	si := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	sj := []float64{2, 4, 6, 8, 10, 12, 14, 16}
	sj[3] = math.NaN() // poisons the 1-hop neighborhoods of 2, 3, 4

	for name, compute := range map[string]func() ([]float64, error){
		"LCI":          func() ([]float64, error) { return LCI(g, si, sj, Options{}) },
		"LCI-4workers": func() ([]float64, error) { return lci(g, si, sj, Options{}, 4) },
	} {
		lci, err := compute()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for v, x := range lci {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("%s[%d] = %g, want finite", name, v, x)
			}
		}
		for _, v := range []int{2, 3, 4} {
			if lci[v] != 0 {
				t.Errorf("%s[%d] = %g, want 0 for a NaN-touching neighborhood", name, v, lci[v])
			}
		}
		// Vertices whose neighborhood misses the NaN keep their perfect
		// linear correlation.
		for _, v := range []int{0, 1, 6, 7} {
			if math.Abs(lci[v]-1) > 1e-12 {
				t.Errorf("%s[%d] = %g, want 1 on the clean prefix/suffix", name, v, lci[v])
			}
		}
	}

	gci, err := GCI(g, si, sj, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(gci) || math.IsInf(gci, 0) {
		t.Fatalf("GCI = %g with one NaN vertex, want finite", gci)
	}
}

// TestInfOverflowDoesNotPoisonLCI covers the second non-finite route:
// ±Inf inputs, and finite-but-huge values whose squared deviations
// overflow the covariance sums to Inf/Inf = NaN.
func TestInfOverflowDoesNotPoisonLCI(t *testing.T) {
	g := lineGraph(4)
	si := []float64{1, math.Inf(1), 3, 4}
	sj := []float64{2, 4, 6, 8}
	lci, err := LCI(g, si, sj, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v, x := range lci {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("LCI[%d] = %g with an Inf vertex, want finite", v, x)
		}
	}

	huge := math.MaxFloat64
	if r := pearson([]float64{huge, -huge, huge}, []float64{1, 2, 3}); math.IsNaN(r) || math.IsInf(r, 0) {
		t.Fatalf("Pearson over overflowing values = %g, want finite", r)
	}
}
