package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/graph"
)

// FuzzReadSuperTree asserts the binary reader's contract: arbitrary
// bytes never panic and never produce an invalid tree — anything
// accepted passes Validate (the reader validates before returning, so
// a Validate failure here means that guarantee regressed) and reads
// back subtrees of the sizes it reports.
func FuzzReadSuperTree(f *testing.F) {
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	st := VertexSuperTree(MustVertexField(g, []float64{3, 1, 2, 1}))
	var valid bytes.Buffer
	if _, err := st.WriteTo(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte("SFST"))
	f.Add([]byte("SFST\x01\xff\xff\xff\xff\xff\xff\xff\xff")) // hostile header
	f.Add([]byte{})
	f.Add(nonTopologicalTree)
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := ReadSuperTree(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := st.Validate(); err != nil {
			t.Fatalf("reader accepted an invalid tree: %v", err)
		}
		// Subtree sizes and subtree reads come from the same flat index;
		// a tree the index misreads would make them disagree.
		for s, size := range st.SubtreeSize() {
			if got := len(st.SubtreeItems(int32(s))); got != int(size) {
				t.Fatalf("super node %d: SubtreeSize %d, SubtreeItems %d", s, size, got)
			}
		}
	})
}

// FuzzSweepOrder decodes the input as little-endian float64s, drops
// NaN as the field constructors reject it, and checks through
// requireSweepOrder that the package-level and pooled sweep orders,
// the radix sort and (when the field qualifies) the counting sort all
// equal the sweepCmp order. Each input is also tried with every value
// truncated to an integer, so the counting path sees the fuzzer's
// values too.
func FuzzSweepOrder(f *testing.F) {
	seed := func(values ...float64) []byte {
		var buf []byte
		for _, v := range values {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		return buf
	}
	f.Add([]byte{})
	f.Add(seed(3, 1, 2, 1, 3))
	f.Add(seed(math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)))
	f.Add(seed(math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 0.5, -0.5))
	var b TreeBuilder
	f.Fuzz(func(t *testing.T, data []byte) {
		var values []float64
		for ; len(data) >= 8; data = data[8:] {
			if v := math.Float64frombits(binary.LittleEndian.Uint64(data)); !math.IsNaN(v) {
				values = append(values, v)
			}
		}
		truncated := make([]float64, len(values))
		for i, v := range values {
			truncated[i] = math.Trunc(v)
		}
		requireSweepOrder(t, &b, values, "fuzzed")
		requireSweepOrder(t, &b, truncated, "fuzzed, truncated")
	})
}
