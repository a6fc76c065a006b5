package par

import (
	"runtime"
	"testing"
)

// withGOMAXPROCS runs fn at the given GOMAXPROCS, restoring the
// previous value afterwards.
func withGOMAXPROCS(t *testing.T, procs int, fn func()) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

// withPartitionBytes runs fn under the given partition budget,
// restoring the previous budget afterwards.
func withPartitionBytes(t *testing.T, budget int, fn func()) {
	t.Helper()
	prev := PartitionBytes()
	SetPartitionBytes(budget)
	defer SetPartitionBytes(prev)
	fn()
}

func TestWorkersSerialBelowCutoff(t *testing.T) {
	withGOMAXPROCS(t, 8, func() {
		for _, n := range []int{-1, 0, 1, 2, SerialCutoff / 2, SerialCutoff - 1} {
			if w := Workers(n); w != 1 {
				t.Fatalf("Workers(%d) = %d at GOMAXPROCS 8, want 1 below SerialCutoff", n, w)
			}
		}
	})
}

func TestWorkersFollowsGOMAXPROCS(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 8} {
		withGOMAXPROCS(t, procs, func() {
			for _, n := range []int{SerialCutoff, SerialCutoff + 1, 10 * SerialCutoff} {
				if w := Workers(n); w != procs {
					t.Fatalf("Workers(%d) = %d at GOMAXPROCS %d, want %d", n, w, procs, procs)
				}
			}
		})
	}
}

func TestWorkersCappedAtN(t *testing.T) {
	// Only a GOMAXPROCS above the cutoff can exceed n while n clears
	// the cutoff.
	procs := SerialCutoff + 10
	withGOMAXPROCS(t, procs, func() {
		if w := Workers(SerialCutoff); w != SerialCutoff {
			t.Fatalf("Workers(%d) = %d at GOMAXPROCS %d, want it capped at n", SerialCutoff, w, procs)
		}
		if w := Workers(SerialCutoff + 20); w != procs {
			t.Fatalf("Workers(%d) = %d at GOMAXPROCS %d, want %d", SerialCutoff+20, w, procs, procs)
		}
	})
}

func TestSetPartitionBytesClampsNegative(t *testing.T) {
	withPartitionBytes(t, -5, func() {
		if b := PartitionBytes(); b != 0 {
			t.Fatalf("PartitionBytes after SetPartitionBytes(-5) = %d, want 0", b)
		}
	})
	withPartitionBytes(t, 4096, func() {
		if b := PartitionBytes(); b != 4096 {
			t.Fatalf("PartitionBytes = %d, want 4096", b)
		}
	})
}

func TestSpanForBudgetDisabled(t *testing.T) {
	withPartitionBytes(t, 0, func() {
		if s := SpanForBudget(1<<20, 64); s != 0 {
			t.Fatalf("SpanForBudget with no budget = %d, want 0", s)
		}
	})
	withPartitionBytes(t, 1<<10, func() {
		for _, units := range []int{0, -3} {
			if s := SpanForBudget(1<<20, units); s != 0 {
				t.Fatalf("SpanForBudget(_, %d) = %d, want 0 for degenerate units", units, s)
			}
		}
	})
}

func TestSpanForBudget(t *testing.T) {
	for _, tc := range []struct {
		budget, total, units, want int
	}{
		{budget: 1 << 10, total: 64 << 10, units: 64, want: 1}, // 1 KiB per unit: one unit fits
		{budget: 8 << 10, total: 64 << 10, units: 64, want: 8}, // eight units fit
		{budget: 1 << 30, total: 64 << 10, units: 64, want: 1 << 20},
		{budget: 100, total: 64 << 10, units: 64, want: 1}, // a unit exceeds the budget: clamped to 1
		{budget: 1, total: 1 << 20, units: 2, want: 1},     // clamped to 1
		{budget: 10, total: 3, units: 8, want: 10},         // under a byte per unit counts as 1
		{budget: 10, total: 0, units: 8, want: 10},         // no bytes at all counts as 1 per unit
	} {
		withPartitionBytes(t, tc.budget, func() {
			if s := SpanForBudget(tc.total, tc.units); s != tc.want {
				t.Fatalf("budget %d: SpanForBudget(%d, %d) = %d, want %d",
					tc.budget, tc.total, tc.units, s, tc.want)
			}
		})
	}
}
