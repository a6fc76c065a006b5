package core

import (
	"bytes"
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
	data[len(data)-4] = 0xFF
	data[len(data)-3] = 0xFF
	data[len(data)-2] = 0xFF
	data[len(data)-1] = 0x7F
	if _, err := ReadSuperTree(bytes.NewReader(data)); err == nil {
		t.Error("want error for out-of-range item mapping")
	}
}
