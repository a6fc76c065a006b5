package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
)

// FuzzReadSuperTree asserts the SFST decoders' contract: arbitrary
// bytes never panic, ReadSuperTree and DecodeSuperTree accept exactly
// the inputs the element-at-a-time oracle accepts and decode identical
// trees, DecodeSuperTreeTrusted decodes the same tree from them,
// ReadSuperTree consumes exactly the bytes the oracle reads, and
// anything accepted passes the full Validate (the decoders validate
// before returning, so a Validate failure here means that guarantee
// regressed) and reads back subtrees of the sizes it reports. A stored
// index one bit off the tree's own is among the seeds.
func FuzzReadSuperTree(f *testing.F) {
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	st := VertexSuperTree(MustVertexField(g, []float64{3, 1, 2, 1}))
	var valid bytes.Buffer
	if _, err := st.WriteTo(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte("SFST"))
	f.Add([]byte("SFST\x02\x00\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff")) // hostile header
	f.Add([]byte{})
	f.Add(nonTopologicalTree)
	f.Add(nanTree)
	f.Add(rawTreeBytes([]int32{-1, 0}, []float64{1, 2}, []int32{0, 0})) // super node 1 has no members
	f.Add(append(valid.Bytes(), "trailing"...))
	tampered := bytes.Clone(valid.Bytes())
	tampered[treeHeaderLen+12*st.Len()+4*st.NumItems()] ^= 1 // the first flat item
	f.Add(tampered)
	f.Fuzz(func(t *testing.T, data []byte) {
		or := bytes.NewReader(data)
		want, wantErr := readSuperTreeOracle(or)
		rr := bytes.NewReader(data)
		st, err := ReadSuperTree(rr)
		decoded, decErr := DecodeSuperTree(data)
		if (err == nil) != (wantErr == nil) || (decErr == nil) != (wantErr == nil) {
			t.Fatalf("oracle err %v; ReadSuperTree err %v; DecodeSuperTree err %v", wantErr, err, decErr)
		}
		if err != nil {
			return
		}
		if rr.Len() != or.Len() {
			t.Fatalf("ReadSuperTree left %d bytes unread, the oracle %d", rr.Len(), or.Len())
		}
		trusted, err := DecodeSuperTreeTrusted(data)
		if err != nil {
			t.Fatalf("trusted decode of accepted bytes: %v", err)
		}
		for _, got := range []*SuperTree{st, decoded, trusted} {
			if !reflect.DeepEqual(got, want) || !sameFloatBits(got.Scalar, want.Scalar) {
				t.Fatal("decoded tree differs from the oracle's")
			}
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

func sameFloatBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
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
