package core

import (
	"bytes"
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
