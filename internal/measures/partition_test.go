package measures

import (
	"reflect"
	"testing"

	"repro/internal/par"
)

// The partition budget (par.SetPartitionBytes) reshapes which worker
// runs which scheduling unit — never what any unit computes or the
// order results merge. These tests pin the contract: every field is
// bitwise identical for any budget, from "one batch per claim" through
// "everything in one claim" to disabled.

// partitionBudgets spans the interesting regimes: tiny (every claim is
// clamped to one unit), medium (a few units per claim), huge (one
// claim takes everything), and 0 (partitioning disabled — the strided
// baseline).
var partitionBudgets = []int{0, 1, 4 << 10, 256 << 10, 1 << 30}

// withPartitionBudget runs fn under the given budget, restoring the
// previous budget afterwards so tests cannot leak policy into each
// other.
func withPartitionBudget(t *testing.T, budget int, fn func()) {
	t.Helper()
	prev := par.PartitionBytes()
	par.SetPartitionBytes(budget)
	defer par.SetPartitionBytes(prev)
	fn()
}

func TestPartitionBudgetDistanceFieldsBitwise(t *testing.T) {
	g := randomGraph(11, par.SerialCutoff+700, 2.2)
	names := []string{"closeness", "harmonic", "eccentricity", "khop"}
	baseline, ok := SharedDistanceFields(g, names)
	if !ok {
		t.Fatal("SharedDistanceFields rejected distance-based names")
	}
	for _, budget := range partitionBudgets {
		withPartitionBudget(t, budget, func() {
			got, ok := SharedDistanceFields(g, names)
			if !ok {
				t.Fatalf("budget %d: SharedDistanceFields rejected names", budget)
			}
			if !reflect.DeepEqual(baseline, got) {
				t.Fatalf("budget %d: distance fields diverge from unpartitioned baseline", budget)
			}
		})
	}
}

func TestPartitionBudgetBetweennessBitwise(t *testing.T) {
	g := randomGraph(12, 900, 2.0)
	baseline := BetweennessCentrality(g)
	baselineEdge := EdgeBetweennessCentrality(g)
	for _, budget := range partitionBudgets {
		withPartitionBudget(t, budget, func() {
			if got := BetweennessCentrality(g); !reflect.DeepEqual(baseline, got) {
				t.Fatalf("budget %d: betweenness diverges from unpartitioned baseline", budget)
			}
			if got := EdgeBetweennessCentrality(g); !reflect.DeepEqual(baselineEdge, got) {
				t.Fatalf("budget %d: edge betweenness diverges from unpartitioned baseline", budget)
			}
		})
	}
}

// TestPartitionBudgetSerialKernelsBitwise covers graphs below
// par.SerialCutoff, where the kernels run on one worker that claims
// every run itself.
func TestPartitionBudgetSerialKernelsBitwise(t *testing.T) {
	g := randomGraph(13, 500, 2.5)
	ecc := Eccentricity(g)
	khop := KHopSize(g)
	withPartitionBudget(t, 512, func() {
		if got := Eccentricity(g); !reflect.DeepEqual(ecc, got) {
			t.Fatal("partitioned one-worker eccentricity diverges")
		}
		if got := KHopSize(g); !reflect.DeepEqual(khop, got) {
			t.Fatal("partitioned one-worker khop diverges")
		}
	})
}
