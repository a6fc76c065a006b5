package measures

import (
	"sort"
	"testing"

	"repro/internal/par"
)

func TestRegistryNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	if len(names) < 12 {
		t.Fatalf("registry lists %d measures, want >= 12", len(names))
	}
	for _, name := range names {
		spec, ok := Lookup(name)
		if !ok {
			t.Fatalf("Names() lists %q but Lookup misses it", name)
		}
		if spec.Compute == nil {
			t.Fatalf("measure %q registered without Compute", name)
		}
	}
	if _, ok := Lookup("no-such-measure"); ok {
		t.Fatal("Lookup invented a measure")
	}
}

func TestRegisterRejectsBadSpecs(t *testing.T) {
	mustPanic := func(label string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", label)
			}
		}()
		fn()
	}
	mustPanic("empty name", func() { Register("", Spec{Compute: DegreeCentrality}) })
	mustPanic("nil compute", func() { Register("broken", Spec{}) })
	mustPanic("duplicate", func() { Register("kcore", Spec{Compute: DegreeCentrality}) })
}

// TestParallelBetweennessWindow guards against the exact-vs-sampled
// cutoff collapsing onto the worker cutoff: ExactBetweennessLimit
// must exceed par.SerialCutoff, or the registered exact betweenness
// never runs on more than one worker.
func TestParallelBetweennessWindow(t *testing.T) {
	if ExactBetweennessLimit <= par.SerialCutoff {
		t.Fatalf("ExactBetweennessLimit %d <= par.SerialCutoff %d: multi-worker exact betweenness unreachable",
			ExactBetweennessLimit, par.SerialCutoff)
	}
}
