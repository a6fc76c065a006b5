package core

import (
	"reflect"
	"testing"
)

// TestTreeBuilderMatchesPackageBuilders reuses one TreeBuilder across
// fields of varying size, tie structure, and value kind (integer
// fields take the counting path, fractional the comparison sort); the
// pooled output must be bit-identical to the fresh builders each time.
func TestTreeBuilderMatchesPackageBuilders(t *testing.T) {
	var b TreeBuilder
	// Shrinking then growing sizes exercise buffer reuse and regrowth.
	for i, n := range []int{300, 40, 5000, 12, 600} {
		for _, levels := range []int{1, 4, 1 << 20} {
			f := randomTieField(int64(i), n, 6, levels)
			requireSameTree(t, BuildVertexTreeSerial(f), b.BuildVertexTree(f), "pooled-vertex")

			ef := randomEdgeField(int64(i), max(n/8, 2), 3.0, levels)
			requireSameTree(t, BuildEdgeTreeSerial(ef), b.BuildEdgeTree(ef), "pooled-edge")

			st := b.VertexSuperTree(f)
			ref := VertexSuperTree(f)
			if !reflect.DeepEqual(ref, st) {
				t.Fatalf("n=%d levels=%d: pooled super tree diverges", n, levels)
			}
		}
	}
}

// TestTreeBuilderSuperTreeOutlivesPool pins the ownership contract:
// SuperTrees built from the pool must stay intact after later builds
// reuse the scratch.
func TestTreeBuilderSuperTreeOutlivesPool(t *testing.T) {
	var b TreeBuilder
	f1 := randomTieField(1, 200, 5, 4)
	st := b.VertexSuperTree(f1)
	parent := append([]int32(nil), st.Parent...)
	scalar := append([]float64(nil), st.Scalar...)
	nodeOf := append([]int32(nil), st.NodeOf...)

	// Clobber the pool with a different, larger build.
	b.VertexSuperTree(randomTieField(2, 3000, 6, 7))

	if !reflect.DeepEqual(parent, st.Parent) ||
		!reflect.DeepEqual(scalar, st.Scalar) ||
		!reflect.DeepEqual(nodeOf, st.NodeOf) {
		t.Fatal("SuperTree from pooled builder was corrupted by a later build")
	}
}

// TestTreeBuilderAllocationBound is the allocation regression guard on
// the pooled hot path: after warm-up, a counting-path vertex-tree
// build performs O(1) allocations (the Tree header) regardless of
// field size.
func TestTreeBuilderAllocationBound(t *testing.T) {
	f := randomTieField(3, 2000, 5, 8) // integer values: counting path
	var b TreeBuilder
	b.BuildVertexTree(f) // warm up the pooled buffers
	allocs := testing.AllocsPerRun(10, func() {
		b.BuildVertexTree(f)
	})
	if allocs > 2 {
		t.Fatalf("warm pooled BuildVertexTree allocates %v objects per build, want <= 2", allocs)
	}

	ef := randomEdgeField(4, 400, 3.0, 8)
	b.BuildEdgeTree(ef)
	allocs = testing.AllocsPerRun(10, func() {
		b.BuildEdgeTree(ef)
	})
	if allocs > 3 {
		t.Fatalf("warm pooled BuildEdgeTree allocates %v objects per build, want <= 3", allocs)
	}
}

// TestTreeBuilderPoolsRadixBuffers checks that the radix sort's
// buffers live in the builder: after warm-up, a super tree over a
// fractional field (radix sort) allocates exactly as often as one over
// an integer field (counting sort), whose only allocations are the
// returned SuperTree's own storage.
func TestTreeBuilderPoolsRadixBuffers(t *testing.T) {
	integer := randomTieField(5, 3000, 5, 8)
	fractional := MustVertexField(integer.G, append([]float64(nil), integer.Values...))
	for i := range fractional.Values {
		fractional.Values[i] += 0.5
	}
	var b TreeBuilder
	allocs := func(f *VertexField) float64 {
		b.VertexSuperTree(f)
		return testing.AllocsPerRun(10, func() { b.VertexSuperTree(f) })
	}
	if got, want := allocs(fractional), allocs(integer); got != want {
		t.Fatalf("warm pooled super tree: %v allocations on a fractional field, %v on an integer one", got, want)
	}
}
