package correlation

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/par"
)

func randomFieldGraph(seed int64, n int, p float64) (*graph.Graph, []float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	for u := int32(0); u < int32(n); u++ {
		for v := u + 1; v < int32(n); v++ {
			if rng.Float64() < p {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
	}
	g := graph.FromEdges(n, edges)
	si := make([]float64, n)
	sj := make([]float64, n)
	for i := range si {
		si[i] = rng.NormFloat64()
		sj[i] = 0.4*si[i] + 0.6*rng.NormFloat64()
	}
	return g, si, sj
}

// sequentialLCI is the reference LCI: one pass in vertex order with a
// freshly built neighborhood per vertex. The strided multi-worker
// kernel must match it bit for bit.
func sequentialLCI(g *graph.Graph, si, sj []float64, opts Options) []float64 {
	n := g.NumVertices()
	hops := opts.Hops
	if hops < 1 {
		hops = 1
	}
	out := make([]float64, n)
	for v := int32(0); v < int32(n); v++ {
		var hood []int32
		if hops == 1 {
			nbrs := g.Neighbors(v)
			hood = make([]int32, 0, len(nbrs)+1)
			hood = append(hood, v)
			hood = append(hood, nbrs...)
		} else {
			hood = graph.KHopNeighborhood(g, v, hops)
		}
		out[v] = pearsonOver(hood, si, sj)
	}
	return out
}

// TestParallelLCIMatchesSequential runs the one LCI kernel with every
// worker count from 1 to 8 against the sequential reference.
func TestParallelLCIMatchesSequential(t *testing.T) {
	for _, hops := range []int{1, 2} {
		for seed := int64(0); seed < 3; seed++ {
			g, si, sj := randomFieldGraph(seed, 80, 0.08)
			seq := sequentialLCI(g, si, sj, Options{Hops: hops})
			for workers := 1; workers <= 8; workers++ {
				got, err := lci(g, si, sj, Options{Hops: hops}, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(seq, got) {
					t.Fatalf("hops=%d seed %d workers=%d: LCI diverges from the sequential reference",
						hops, seed, workers)
				}
			}
		}
	}
}

func TestParallelGCIMatchesSequential(t *testing.T) {
	g, si, sj := randomFieldGraph(7, 60, 0.1)
	var want float64
	for _, x := range sequentialLCI(g, si, sj, Options{}) {
		want += x
	}
	want /= float64(g.NumVertices())
	got, err := GCI(g, si, sj, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("GCI %g != mean of the sequential LCI %g", got, want)
	}
}

func TestParallelLCIRejectsBadLengths(t *testing.T) {
	g, si, _ := randomFieldGraph(1, 10, 0.3)
	for _, workers := range []int{1, 4} {
		if _, err := lci(g, si, si[:5], Options{}, workers); err == nil {
			t.Fatalf("workers=%d: want error for mismatched field lengths", workers)
		}
	}
}

func BenchmarkLCI(b *testing.B) {
	g, si, sj := randomFieldGraph(3, 2000, 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LCI(g, si, sj, Options{Hops: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParallelLCIMultiWorkerPath raises GOMAXPROCS on a graph above
// par.SerialCutoff so the exported LCI itself takes the sharded path
// (goroutines time-slice on one core; the result must still be
// bit-identical).
func TestParallelLCIMultiWorkerPath(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	g, si, sj := randomFieldGraph(17, par.SerialCutoff+100, 0.001)
	if w := par.Workers(g.NumVertices()); w < 2 {
		t.Fatalf("par.Workers = %d on %d vertices at GOMAXPROCS 4, want several", w, g.NumVertices())
	}
	for _, hops := range []int{1, 3} {
		got, err := LCI(g, si, sj, Options{Hops: hops})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sequentialLCI(g, si, sj, Options{Hops: hops}), got) {
			t.Fatalf("hops=%d: sharded LCI diverges from the sequential reference", hops)
		}
	}
}
