package core

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestSuperTreeRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		st := VertexSuperTree(randomField(seed, 80, 2.5, 6))
		var buf bytes.Buffer
		n, err := st.WriteTo(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(buf.Len()) {
			t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
		}
		got, err := ReadSuperTree(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Parent, st.Parent) {
			t.Fatal("parents differ after round trip")
		}
		if !reflect.DeepEqual(got.Scalar, st.Scalar) {
			t.Fatal("scalars differ after round trip")
		}
		if !reflect.DeepEqual(got.NodeOf, st.NodeOf) {
			t.Fatal("item mapping differs after round trip")
		}
		if !reflect.DeepEqual(got, st) {
			t.Fatal("member, subtree or child index differs after round trip")
		}
		// Behavior equivalence: components at a few α values.
		for _, alpha := range []float64{0, 2, 4} {
			if !reflect.DeepEqual(got.ComponentsAt(alpha), st.ComponentsAt(alpha)) {
				t.Fatalf("seed %d: components differ at α=%g", seed, alpha)
			}
		}
	}
}

func TestSuperTreeRoundTripEmpty(t *testing.T) {
	st := VertexSuperTree(MustVertexField(graph.NewBuilder(0).Build(), nil))
	var buf bytes.Buffer
	if _, err := st.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSuperTree(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.NumItems() != 0 {
		t.Errorf("round-tripped empty tree: %d/%d", got.Len(), got.NumItems())
	}
}

func TestReadSuperTreeBadMagic(t *testing.T) {
	if _, err := ReadSuperTree(strings.NewReader("NOPE....")); err == nil {
		t.Error("want error for bad magic")
	}
}

func TestReadSuperTreeTruncated(t *testing.T) {
	st := VertexSuperTree(randomField(1, 30, 2, 4))
	var buf bytes.Buffer
	if _, err := st.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{3, 5, 9, len(data) / 2, len(data) - 1} {
		if _, err := ReadSuperTree(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d bytes accepted", cut)
		}
	}
}

func TestReadSuperTreeBadVersion(t *testing.T) {
	st := VertexSuperTree(randomField(2, 20, 2, 4))
	var buf bytes.Buffer
	if _, err := st.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 99 // version byte
	if _, err := ReadSuperTree(bytes.NewReader(data)); err == nil {
		t.Error("want error for unsupported version")
	}
}

func TestReadSuperTreeCorruptMapping(t *testing.T) {
	st := VertexSuperTree(randomField(3, 20, 2, 4))
	var buf bytes.Buffer
	if _, err := st.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt the last NodeOf entry to an out-of-range super node.
	last := treeHeaderLen + 12*st.Len() + 4*(st.NumItems()-1)
	binary.LittleEndian.PutUint32(data[last:], 0x7FFFFFFF)
	if _, err := ReadSuperTree(bytes.NewReader(data)); err == nil {
		t.Error("want error for out-of-range item mapping")
	}
	if _, err := DecodeSuperTreeTrusted(data); err != nil {
		t.Errorf("the trusted decoder checks only the header and lengths: %v", err)
	}
}

// TestReadSuperTreeRejectsTamperedIndex: a stored index one entry off
// the index the tree's arrays build is rejected, whichever array the
// entry is in; the trusted decoder views it unchecked.
func TestReadSuperTreeRejectsTamperedIndex(t *testing.T) {
	st := VertexSuperTree(randomField(4, 40, 2, 4))
	data, _ := st.AppendBinary(nil)
	flat := treeHeaderLen + 12*st.Len() + 4*st.NumItems()
	for name, at := range map[string]int{
		"flat":       flat,
		"member end": flat + 4*st.NumItems(),
		"last child": len(data) - 4,
	} {
		evil := append([]byte(nil), data...)
		evil[at] ^= 1
		if _, err := DecodeSuperTree(evil); err == nil {
			t.Errorf("%s: tampered index accepted", name)
		}
		if _, err := DecodeSuperTreeTrusted(evil); err != nil {
			t.Errorf("%s: trusted decode failed: %v", name, err)
		}
	}
}
