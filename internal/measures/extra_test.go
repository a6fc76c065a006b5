package measures

import (
	"math"
	"sort"
	"testing"

	"repro/internal/graph"
)

// EigenvectorCentrality, DegreeAssortativity, KendallTau and TopK are
// not registered measures and no binary calls them: they live here,
// beside the tests that pin them. KendallTau also scores the sampled
// betweenness against the exact one.

// EigenvectorCentrality computes eigenvector centrality by power
// iteration on the adjacency matrix, normalized so the maximum score
// is 1. Iteration stops at tol L1-change or maxIter rounds. On a
// disconnected graph the scores concentrate on the component with the
// largest spectral radius; smaller components tend toward zero —
// callers visualizing a field should run it on one component.
func EigenvectorCentrality(g *graph.Graph, tol float64, maxIter int) []float64 {
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	if g.NumEdges() == 0 {
		return make([]float64, n)
	}
	x := make([]float64, n)
	next := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	for iter := 0; iter < maxIter; iter++ {
		// Iterate (A + I)x rather than Ax: the shift preserves the
		// eigenvector ordering but breaks the period-2 oscillation of
		// bipartite graphs (whose spectrum is symmetric about 0).
		copy(next, x)
		for v := int32(0); v < int32(n); v++ {
			xv := x[v]
			for _, u := range g.Neighbors(v) {
				next[u] += xv
			}
		}
		// Normalize by max to avoid overflow.
		max := 0.0
		for _, v := range next {
			if v > max {
				max = v
			}
		}
		if max == 0 {
			return next // edgeless graph: all zero
		}
		var diff float64
		for i := range next {
			next[i] /= max
			diff += math.Abs(next[i] - x[i])
		}
		x, next = next, x
		if diff < tol {
			break
		}
	}
	return x
}

// DegreeAssortativity computes the Pearson correlation of endpoint
// degrees over edges — positive for collaboration-style networks
// (hubs link hubs), negative for hub-and-spoke topologies. Returns 0
// for graphs with fewer than 2 edges or zero degree variance.
func DegreeAssortativity(g *graph.Graph) float64 {
	m := g.NumEdges()
	if m < 2 {
		return 0
	}
	// Over directed stubs (each edge contributes both orientations).
	var sumXY, sumX, sumX2 float64
	count := float64(2 * m)
	for _, e := range g.Edges() {
		du, dv := float64(g.Degree(e.U)), float64(g.Degree(e.V))
		sumXY += 2 * du * dv
		sumX += du + dv
		sumX2 += du*du + dv*dv
	}
	mean := sumX / count
	cov := sumXY/count - mean*mean
	varX := sumX2/count - mean*mean
	if varX == 0 {
		return 0
	}
	return cov / varX
}

// KendallTau computes the Kendall rank correlation τ-b between two
// equal-length score vectors, with tie correction. It is the standard
// way to compare two centrality rankings (e.g. exact vs. approximate
// betweenness) independent of scale. O(n²) pair scan — fine for the
// evaluation sizes it is used at.
func KendallTau(a, b []float64) float64 {
	n := len(a)
	if n != len(b) || n < 2 {
		return 0
	}
	var concordant, discordant, tiesA, tiesB float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			da := a[i] - a[j]
			db := b[i] - b[j]
			switch {
			case da == 0 && db == 0:
				// Joint tie: excluded from all counts in τ-b.
			case da == 0:
				tiesA++
			case db == 0:
				tiesB++
			case (da > 0) == (db > 0):
				concordant++
			default:
				discordant++
			}
		}
	}
	d1 := concordant + discordant + tiesA
	d2 := concordant + discordant + tiesB
	if d1 == 0 || d2 == 0 {
		return 0
	}
	return (concordant - discordant) / math.Sqrt(d1*d2)
}

// TopK returns the indexes of the k largest values, ties broken by
// smaller index, in descending score order. Used by the experiment
// harness to list "key members" of a peak (the paper's author lists).
func TopK(values []float64, k int) []int32 {
	idx := make([]int32, len(values))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if values[idx[a]] != values[idx[b]] {
			return values[idx[a]] > values[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

func TestParallelBetweennessMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomGraph(seed, 80, 2.5)
		seq := perSourceBetweennessSerial(g)
		for w := 1; w <= 8; w++ {
			par := msBrandesBetweenness(g, w)
			for v := range seq {
				if math.Abs(seq[v]-par[v]) > 1e-9*(1+math.Abs(seq[v])) {
					t.Fatalf("seed %d workers=%d: bc[%d] seq %g, par %g", seed, w, v, seq[v], par[v])
				}
			}
		}
	}
}

func TestParallelClosenessMatchesSequential(t *testing.T) {
	g := randomGraph(3, 70, 2.5)
	seq := perSourceBFS(g, 1, func(dist []int32) float64 {
		return closenessOf(dist, g.NumVertices())
	})
	for w := 1; w <= 8; w++ {
		par := msbfsFields(g, distSel{close: true}, w).clo
		for v := range seq {
			if math.Abs(seq[v]-par[v]) > 1e-12 {
				t.Fatalf("workers=%d: closeness[%d] seq %g, par %g", w, v, seq[v], par[v])
			}
		}
	}
}

func TestParallelBetweennessTinyGraph(t *testing.T) {
	g := pathGraph(3)
	for w := 1; w <= 8; w++ {
		par := msBrandesBetweenness(g, w)
		if math.Abs(par[1]-1) > 1e-9 {
			t.Errorf("workers=%d: P3 middle bc = %g, want 1", w, par[1])
		}
	}
}

func TestEigenvectorStar(t *testing.T) {
	// Star: hub has the max score 1; leaves equal and smaller.
	ev := EigenvectorCentrality(starGraph(6), 1e-12, 500)
	if math.Abs(ev[0]-1) > 1e-9 {
		t.Errorf("hub eigenvector = %g, want 1", ev[0])
	}
	for v := 1; v <= 6; v++ {
		if ev[v] >= ev[0] {
			t.Errorf("leaf %d score %g >= hub", v, ev[v])
		}
		if math.Abs(ev[v]-ev[1]) > 1e-9 {
			t.Errorf("leaves unequal: %g vs %g", ev[v], ev[1])
		}
	}
}

func TestEigenvectorRegularUniform(t *testing.T) {
	ev := EigenvectorCentrality(cycleGraph(8), 1e-12, 1000)
	for v := 1; v < 8; v++ {
		if math.Abs(ev[v]-ev[0]) > 1e-6 {
			t.Errorf("cycle eigenvector not uniform: %g vs %g", ev[v], ev[0])
		}
	}
}

func TestEigenvectorEdgeless(t *testing.T) {
	ev := EigenvectorCentrality(graph.NewBuilder(3).Build(), 1e-10, 50)
	for v, s := range ev {
		if s != 0 {
			t.Errorf("edgeless eigenvector[%d] = %g, want 0", v, s)
		}
	}
	if EigenvectorCentrality(graph.NewBuilder(0).Build(), 1e-10, 10) != nil {
		t.Error("empty graph should return nil")
	}
}

func TestAssortativityStarNegative(t *testing.T) {
	// Hub-and-spoke is maximally disassortative.
	if a := DegreeAssortativity(starGraph(8)); a >= 0 {
		t.Errorf("star assortativity = %g, want negative", a)
	}
}

func TestAssortativityRegularZeroVariance(t *testing.T) {
	if a := DegreeAssortativity(cycleGraph(10)); a != 0 {
		t.Errorf("regular graph assortativity = %g, want 0 (zero variance)", a)
	}
}

func TestAssortativityBounds(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := randomGraph(seed, 60, 3)
		a := DegreeAssortativity(g)
		if a < -1-1e-9 || a > 1+1e-9 || math.IsNaN(a) {
			t.Fatalf("seed %d: assortativity %g out of [-1,1]", seed, a)
		}
	}
}

func TestAssortativityTinyGraph(t *testing.T) {
	if a := DegreeAssortativity(pathGraph(2)); a != 0 {
		t.Errorf("single-edge assortativity = %g, want 0", a)
	}
}

func TestKendallTauPerfect(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{10, 20, 30, 40, 50}
	if tau := KendallTau(a, b); math.Abs(tau-1) > 1e-12 {
		t.Errorf("τ of identical rankings = %g, want 1", tau)
	}
	rev := []float64{50, 40, 30, 20, 10}
	if tau := KendallTau(a, rev); math.Abs(tau+1) > 1e-12 {
		t.Errorf("τ of reversed rankings = %g, want -1", tau)
	}
}

func TestKendallTauTies(t *testing.T) {
	a := []float64{1, 1, 2, 3}
	b := []float64{1, 2, 3, 4}
	tau := KendallTau(a, b)
	if tau <= 0 || tau > 1 {
		t.Errorf("τ with ties = %g, want in (0,1]", tau)
	}
}

func TestKendallTauDegenerate(t *testing.T) {
	if KendallTau([]float64{1}, []float64{2}) != 0 {
		t.Error("singleton τ should be 0")
	}
	if KendallTau([]float64{1, 2}, []float64{3}) != 0 {
		t.Error("mismatched lengths τ should be 0")
	}
	if KendallTau([]float64{1, 1}, []float64{2, 3}) != 0 {
		t.Error("all-tied τ should be 0")
	}
}

func TestKendallTauApproxVsExactBetweenness(t *testing.T) {
	// The approximation should preserve ranking: τ well above 0.
	g := randomGraph(11, 100, 3)
	exact := BetweennessCentrality(g)
	approx := ApproxBetweennessCentrality(g, 50, 3)
	if tau := KendallTau(exact, approx); tau < 0.5 {
		t.Errorf("τ(exact, approx) = %g, want >= 0.5", tau)
	}
}

func TestTopK(t *testing.T) {
	vals := []float64{3, 9, 1, 9, 5}
	top := TopK(vals, 3)
	want := []int32{1, 3, 4} // two 9s (tie: smaller index first), then 5
	for i := range want {
		if top[i] != want[i] {
			t.Fatalf("TopK = %v, want %v", top, want)
		}
	}
	if got := TopK(vals, 99); len(got) != 5 {
		t.Errorf("TopK over-length = %d items", len(got))
	}
}
