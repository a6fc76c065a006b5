package measures

import (
	"math"
	"testing"
)

// KendallTau computes the Kendall rank correlation τ-b between two
// equal-length score vectors, with tie correction. It is the standard
// way to compare two centrality rankings (e.g. exact vs. approximate
// betweenness) independent of scale. O(n²) pair scan — fine for the
// evaluation sizes it is used at. No binary calls it: it lives here,
// beside the tests that pin it, and scores the sampled betweenness
// against the exact one.
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

func TestParallelBetweennessMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomGraph(seed, 80, 2.5)
		seq := perSourceBetweennessSerial(g)
		for w := 1; w <= 8; w++ {
			par := approxBetweenness(g, g.NumVertices(), 0, w)
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
		par := approxBetweenness(g, g.NumVertices(), 0, w)
		if math.Abs(par[1]-1) > 1e-9 {
			t.Errorf("workers=%d: P3 middle bc = %g, want 1", w, par[1])
		}
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
