package query

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/contour"
)

// FuzzRemoteSnapshotDecode pins the snapshot-fetch trust story: the
// bytes a peer returns are hostile until proven otherwise, and
// decodeRemoteSnapshot — the single gate every fetched or pushed
// snapshot passes — must never panic and never accept a snapshot
// whose identity or generation diverges from what was asked for.
// Allocation discipline is inherited from the snapshot wire codec
// (counts validated against bytes present before any slice is made),
// so a tiny hostile input claiming huge sections errors instead of
// ballooning memory. An accepted snapshot's tree is valid and its
// spectrum is the tree's, whatever the bytes stored.
func FuzzRemoteSnapshotDecode(f *testing.F) {
	key := Key{Dataset: "tiny", Measure: "kcore", Color: "degree"}
	e := NewEngine(Options{})
	e.RegisterDataset("tiny", testGraph())
	snap, err := e.Snapshot(key)
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := EncodeSnapshot(&valid, snap); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add([]byte("SFSN"))
	truncated := valid.Bytes()[:valid.Len()/2]
	f.Add(truncated)
	// Scribble over the middle of a valid container.
	scribbled := append([]byte(nil), valid.Bytes()...)
	for i := len(scribbled) / 2; i < len(scribbled)/2+32 && i < len(scribbled); i++ {
		scribbled[i] ^= 0xa5
	}
	f.Add(scribbled)
	// A stored index or spectrum one bit off the tree's own, behind
	// checksums recomputed to match: only the verifying decode's
	// rebuild of the index and spectrum can catch these.
	ranges := snapshotSectionRanges(f, valid.Bytes())
	tree, spec := ranges["tree"], ranges["spec"]
	st := snap.Terrain.Tree
	levels := len(snap.Spectrum.Levels)
	for _, at := range []int{
		tree[0] + 16 + 12*st.Len() + 4*st.NumItems(), // the first flat item
		tree[1] - 4,        // the last word of the index slab
		spec[0],            // the lowest level
		spec[0] + 8*levels, // the first component count
		spec[1] - 8,        // the last survivor count
	} {
		tampered := bytes.Clone(valid.Bytes())
		tampered[at] ^= 1
		tampered = resealSnapshot(f, tampered)
		if _, err := decodeRemoteSnapshot(tampered, key, 0); err == nil {
			f.Fatalf("snapshot tampered at byte %d accepted", at)
		}
		f.Add(tampered)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeRemoteSnapshot(data, key, 0)
		if err != nil {
			return
		}
		if got.Key != key {
			t.Fatalf("accepted snapshot with key %v, want %v", got.Key, key)
		}
		if got.Seq != snap.Seq {
			t.Fatalf("accepted snapshot with seq %d, want %d", got.Seq, snap.Seq)
		}
		if err := got.Terrain.Tree.Validate(); err != nil {
			t.Fatalf("accepted snapshot with an invalid tree: %v", err)
		}
		if !reflect.DeepEqual(got.Spectrum, contour.NewSpectrum(got.Terrain.Tree)) {
			t.Fatal("accepted snapshot whose spectrum is not its tree's")
		}
	})
}
