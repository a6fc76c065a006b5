package measures

import (
	"reflect"
	"testing"

	"repro/internal/par"
)

// TestParallelHarmonicMatchesSequential checks the worker-sharded
// harmonic kernel bit-for-bit against one worker. Each vertex's score
// depends only on its own BFS, so no floating-point tolerance is
// needed. The large case crosses par.SerialCutoff, where the exported
// kernel itself may pick several workers.
func TestParallelHarmonicMatchesSequential(t *testing.T) {
	for _, n := range []int{70, par.SerialCutoff + 500} {
		g := randomGraph(11, n, 2.0)
		seq := msbfsFields(g, distSel{harm: true}, 1).har
		for w := 2; w <= 8; w++ {
			if got := msbfsFields(g, distSel{harm: true}, w).har; !reflect.DeepEqual(seq, got) {
				t.Fatalf("n=%d workers=%d: harmonic diverges from one worker", n, w)
			}
		}
		if got := HarmonicCentrality(g); !reflect.DeepEqual(seq, got) {
			t.Fatalf("n=%d: HarmonicCentrality diverges from one worker", n)
		}
	}
}

func TestParallelClosenessMatchesSequentialAboveCutoff(t *testing.T) {
	g := randomGraph(13, par.SerialCutoff+500, 2.0)
	seq := msbfsFields(g, distSel{close: true}, 1).clo
	for w := 2; w <= 8; w++ {
		if got := msbfsFields(g, distSel{close: true}, w).clo; !reflect.DeepEqual(seq, got) {
			t.Fatalf("workers=%d: closeness diverges from one worker above the worker cutoff", w)
		}
	}
	if got := ClosenessCentrality(g); !reflect.DeepEqual(seq, got) {
		t.Fatal("ClosenessCentrality diverges from one worker above the worker cutoff")
	}
}

// allocBudget is the per-call allocation ceiling for the per-source-BFS
// kernels: the output slice plus one warm-up of the scratch buffers.
// Before the scratch rewrite these kernels allocated a fresh distance
// array and queue per source — O(|V|) allocations per call — so a
// budget independent of |V| is the regression guard.
const allocBudget = 8

func kernelAllocs(t *testing.T, fn func()) float64 {
	t.Helper()
	return testing.AllocsPerRun(3, fn)
}

func TestClosenessAllocationBound(t *testing.T) {
	g := randomGraph(1, 600, 2.5)
	if a := kernelAllocs(t, func() { ClosenessCentrality(g) }); a > allocBudget {
		t.Fatalf("ClosenessCentrality allocates %v objects on a 600-vertex graph, budget %d", a, allocBudget)
	}
}

func TestHarmonicAllocationBound(t *testing.T) {
	g := randomGraph(2, 600, 2.5)
	if a := kernelAllocs(t, func() { HarmonicCentrality(g) }); a > allocBudget {
		t.Fatalf("HarmonicCentrality allocates %v objects on a 600-vertex graph, budget %d", a, allocBudget)
	}
}

// betweennessAllocBudget is the per-call ceiling for the batched
// MS-Brandes kernel. Each call warms one scratch per worker (backing
// arrays plus a logarithmic number of event-list growth steps) on top
// of the sources/stripe/output slices — a few dozen objects regardless
// of how many of the |V| sources the pass covers. The O(|V|)
// regression the guard exists for would blow past this immediately;
// the zero-allocation warm-batch claim itself is pinned at the graph
// layer (TestMSBrandesWarmBatchAllocationFree).
const betweennessAllocBudget = 64

func TestBetweennessAllocationBound(t *testing.T) {
	g := randomGraph(3, 400, 2.0)
	if a := kernelAllocs(t, func() { BetweennessCentrality(g) }); a > betweennessAllocBudget {
		t.Fatalf("BetweennessCentrality allocates %v objects on a 400-vertex graph, budget %d", a, betweennessAllocBudget)
	}
}

// TestBetweennessIntoAllocationFree pins the strongest claim: with a
// warm scratch and a caller-owned accumulator, the Brandes loop itself
// performs zero allocations per source.
func TestBetweennessIntoAllocationFree(t *testing.T) {
	g := randomGraph(4, 300, 2.0)
	bc := make([]float64, g.NumVertices())
	var scratch brandesScratch
	sources := []int32{0, 17, 33}
	betweennessInto(g, sources, bc, &scratch) // warm up
	if a := testing.AllocsPerRun(10, func() {
		betweennessInto(g, sources, bc, &scratch)
	}); a != 0 {
		t.Fatalf("warm betweennessInto allocates %v objects per run, want 0", a)
	}
}

func TestStridedSourcesExactPrealloc(t *testing.T) {
	for _, tc := range []struct{ w, n, workers int }{
		{0, 10, 3}, {1, 10, 3}, {2, 10, 3}, {0, 1, 4}, {3, 4, 4}, {2, 2, 4},
	} {
		got := stridedSources(tc.w, tc.n, tc.workers)
		var want []int32
		for s := tc.w; s < tc.n; s += tc.workers {
			want = append(want, int32(s))
		}
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("stridedSources(%d,%d,%d) = %v, want %v", tc.w, tc.n, tc.workers, got, want)
		}
		if cap(got) != len(got) {
			t.Fatalf("stridedSources(%d,%d,%d): cap %d != len %d (prealloc wrong)",
				tc.w, tc.n, tc.workers, cap(got), len(got))
		}
	}
}
