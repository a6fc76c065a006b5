package measures

import (
	"math"
	"testing"

	"repro/internal/graph"
)

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
