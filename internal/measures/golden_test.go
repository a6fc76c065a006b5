package measures

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/datasets"
)

// fieldHash is the FNV-64a hash of a field's float64 bits, little
// endian, in index order: equal hashes mean bitwise-equal fields.
func fieldHash(field []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range field {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestBatchedFieldGolden pins the exact bits of every batched-kernel
// field on the GrQc stand-in at scale 0.25, seed 42: a graph with 279
// components, a giant one and 273 isolated vertices. The distance
// fields are exact per-source folds, so their hashes may never move.
// The betweenness hashes move only if the batch composition, the
// stripe merge, or the forward phase's event order changes (hence the
// direction rule, which fixes that order), and such a change must
// re-pin them here.
func TestBatchedFieldGolden(t *testing.T) {
	g, err := datasets.Generate("GrQc", 0.25, 42)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{
		"closeness":           0x69361974e79aacfd,
		"harmonic":            0xfbd81c556e11dc3d,
		"eccentricity":        0x442e8cd16b2390b7,
		"khop":                0x35803eac27607ae2,
		"betweenness":         0x8eb9aec9a986e80a,
		"betweenness-sampled": 0x112b8584c68cdb1c,
		"edgebetweenness":     0xef1dd41229e8a862,
	}
	for name, h := range want {
		spec, ok := Lookup(name)
		if !ok {
			t.Fatalf("measure %q not registered", name)
		}
		if got := fieldHash(spec.Compute(g)); got != h {
			t.Errorf("%s: field hash %#016x, golden %#016x", name, got, h)
		}
	}
}
