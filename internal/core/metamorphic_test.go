package core

import (
	"slices"
	"testing"
)

// TestMonotoneTransformKeepsTreeShape is a metamorphic check that needs
// no oracle: the scalar tree reads a field only through the order of
// its values, so a strictly increasing map must leave the super tree's
// Parent, NodeOf and member lists as they were and map every Scalar
// through the same function. Both maps are exact on the integer test
// values: x ↦ 3x+7 keeps the fields integral (the counting-sort sweep
// order), x ↦ x/4 − 1.5 makes them fractional (the radix sweep order).
// Vertex trees (Algorithm 1) and edge trees (Algorithm 3) are checked
// on the random graphs the Definition 1 tests use, with many ties and
// with nearly distinct values.
func TestMonotoneTransformKeepsTreeShape(t *testing.T) {
	maps := []struct {
		name string
		f    func(float64) float64
	}{
		{"3x+7", func(x float64) float64 { return 3*x + 7 }},
		{"x/4-1.5", func(x float64) float64 { return x/4 - 1.5 }},
	}
	apply := func(f func(float64) float64, values []float64) []float64 {
		out := make([]float64, len(values))
		for i, v := range values {
			out[i] = f(v)
		}
		return out
	}
	for _, m := range maps {
		for seed := int64(0); seed < 20; seed++ {
			for _, valueRange := range []int{5, 1000} {
				vf := randomField(seed, 60, 2.0, valueRange)
				requireMappedShape(t, m.name, m.f, VertexSuperTree(vf),
					VertexSuperTree(MustVertexField(vf.G, apply(m.f, vf.Values))))
				ef := randomEdgeField(seed, 40, 2.0, valueRange)
				requireMappedShape(t, m.name, m.f, EdgeSuperTree(ef),
					EdgeSuperTree(MustEdgeField(ef.G, apply(m.f, ef.Values))))
			}
		}
	}
}

// requireMappedShape fails unless mapped has st's parents, item
// assignment and member lists, and scalars f(st.Scalar).
func requireMappedShape(t *testing.T, name string, f func(float64) float64, st, mapped *SuperTree) {
	t.Helper()
	if !slices.Equal(mapped.Parent, st.Parent) || !slices.Equal(mapped.NodeOf, st.NodeOf) {
		t.Fatalf("%s: the transformed field's super tree has other parents or item assignment", name)
	}
	for s := range st.Parent {
		if got, want := mapped.Scalar[s], f(st.Scalar[s]); got != want {
			t.Fatalf("%s: super node %d scalar %g, want f(%g) = %g", name, s, got, st.Scalar[s], want)
		}
		if !slices.Equal(mapped.Members(int32(s)), st.Members(int32(s))) {
			t.Fatalf("%s: super node %d members %v, want %v", name, s, mapped.Members(int32(s)), st.Members(int32(s)))
		}
	}
}
