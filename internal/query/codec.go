package query

import (
	"fmt"
	"io"
	"os"

	scalarfield "repro"
	"repro/internal/graph"
	"repro/internal/mmapio"
)

// The Snapshot wire codec: thin adapters between the engine's Snapshot
// and the public snapshot wire format (scalarfield.SaveSnapshot /
// LoadSnapshot, magic "SFSN"). Everything a Snapshot holds either
// travels in the container (graph, fields, tree and its index, contour
// spectrum, identity) or is a deterministic function of what does
// (terrain layout and coloring, rebuilt on decode), so a decoded
// snapshot answers every query operation byte-identically to the
// process that encoded it. That property is what makes snapshots safe
// to cache on disk (DiskStore) and to serve from any node of a shard
// fleet. Bytes from anywhere else take the verifying decoder
// (scalarfield.DecodeSnapshotImage); only the disk store's own files
// take the trusted one.

// EncodeSnapshot writes s in the snapshot wire format.
func EncodeSnapshot(w io.Writer, s *Snapshot) error {
	return scalarfield.SaveSnapshot(w, &scalarfield.SnapshotRecord{
		Dataset:     s.Key.Dataset,
		Measure:     s.Key.Measure,
		Color:       s.Key.Color,
		Bins:        s.Key.Bins,
		Seq:         s.Seq,
		Edge:        s.Edge,
		Graph:       s.Graph,
		Values:      s.Values,
		ColorValues: s.ColorValues,
		Terrain:     s.Terrain,
		Spectrum:    s.Spectrum,
	})
}

// DecodeSnapshot decodes and verifies a snapshot EncodeSnapshot wrote
// into data, reconstructing the terrain. Corrupt input errors; nothing
// panics. The snapshot aliases data, which must stay unmodified while
// the snapshot is in use.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	rec, err := scalarfield.DecodeSnapshotImage(data, nil)
	if err != nil {
		return nil, err
	}
	return snapshotFromRecord(rec), nil
}

// snapshotFromRecord bundles a decoded record into a Snapshot.
func snapshotFromRecord(rec *scalarfield.SnapshotRecord) *Snapshot {
	return &Snapshot{
		Key: Key{
			Dataset: rec.Dataset,
			Measure: rec.Measure,
			Color:   rec.Color,
			Bins:    rec.Bins,
		},
		Seq:         rec.Seq,
		Graph:       rec.Graph,
		Edge:        rec.Edge,
		Values:      rec.Values,
		ColorValues: rec.ColorValues,
		Terrain:     rec.Terrain,
		Spectrum:    rec.Spectrum,
	}
}

// DecodeSnapshotFileMapped decodes and verifies a snapshot file from
// one read-only mapping of the whole file (internal/mmapio) instead of
// a heap copy: the snapshot's arrays stay backed by clean file pages
// the kernel can reclaim. Every section is verified in full, as
// DecodeSnapshot verifies peer bytes. The returned snapshot carries a
// reference count wired to the mapping — the caller owns the creation
// reference and must balance it with Release.
func DecodeSnapshotFileMapped(path string) (*Snapshot, error) {
	return decodeSnapshotFile(path, true, false, nil)
}

// decodeSnapshotFile decodes a snapshot file from one image of the
// whole file: a single mapping when mapped is set, otherwise a single
// read into one heap buffer (heap mode never maps). trusted takes
// scalarfield.DecodeSnapshotImageTrusted, for files the disk store
// wrote itself; otherwise every section is verified. The snapshot's
// fields, tree and spectrum view that image, and so does its graph
// unless it is adopted; a mapped snapshot's mappingRef keeps the
// mapping alive. Heap-backed snapshots carry no reference count of
// their own; Release is a no-op.
//
// donor, when non-nil, is an open snapshot the caller has retained
// once for this call; it is released here. If the file's graph section
// is byte-identical to the donor's graph, the decoded snapshot adopts
// that graph and takes one reference on the donor's graphRef, the
// mapping the graph lives in: a mapped snapshot drops it when its own
// count reaches zero, after releasing its own mapping, and a heap one
// makes it its own ref, its creation reference.
func decodeSnapshotFile(path string, mapped, trusted bool, donor *Snapshot) (*Snapshot, error) {
	var have *graph.Graph
	if donor != nil {
		have = donor.Graph
		defer donor.Release()
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	// The mapping outlives the descriptor (mmapio's contract), so the
	// file can close as soon as the image is in hand, mapped or not.
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	var img []byte
	release := func() {}
	if mapped {
		m, err := mmapio.MapFile(f, 0, st.Size())
		if err != nil {
			return nil, fmt.Errorf("query: mapping snapshot file %s: %w", path, err)
		}
		img, release = m.Data(), func() { m.Close() }
	} else {
		img = make([]byte, st.Size())
		if n, err := f.ReadAt(img, 0); n < len(img) {
			return nil, fmt.Errorf("query: reading snapshot file %s: %w", path, err)
		}
	}
	decode := scalarfield.DecodeSnapshotImage
	if trusted {
		decode = scalarfield.DecodeSnapshotImageTrusted
	}
	rec, err := decode(img, have)
	if err != nil {
		release()
		return nil, fmt.Errorf("query: decoding snapshot file %s: %w", path, err)
	}
	snap := snapshotFromRecord(rec)
	switch adopted := have != nil && rec.Graph == have; {
	case adopted && mapped:
		owner := donor.graphRef
		owner.retain()
		snap.ref = newMappedSnapshotRef(func() {
			release()
			owner.drop()
		})
		snap.graphRef = owner
	case adopted:
		donor.graphRef.retain()
		snap.ref, snap.graphRef = donor.graphRef, donor.graphRef
	case mapped:
		snap.ref = newMappedSnapshotRef(release)
		snap.graphRef = snap.ref
	}
	return snap, nil
}

// DecodeSnapshotKey reads only the identity of a stored snapshot from
// img, the whole container or a prefix of it holding the meta section —
// the cheap path DiskStore uses to index a directory at startup.
func DecodeSnapshotKey(img []byte) (Key, error) {
	rec, err := scalarfield.DecodeSnapshotMeta(img)
	if err != nil {
		return Key{}, err
	}
	return Key{Dataset: rec.Dataset, Measure: rec.Measure, Color: rec.Color, Bins: rec.Bins}, nil
}
