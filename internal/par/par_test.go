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
