package query

import (
	"fmt"
	"io"
	"os"

	scalarfield "repro"
	"repro/internal/contour"
	"repro/internal/graph"
	"repro/internal/mmapio"
)

// The Snapshot wire codec: thin adapters between the engine's Snapshot
// and the public snapshot wire format (scalarfield.SaveSnapshot /
// LoadSnapshot, magic "SFSN"). Everything a Snapshot holds either
// travels in the container (graph, fields, tree, identity) or is a
// deterministic function of what does (terrain layout, coloring,
// contour spectrum — rebuilt on decode), so a decoded snapshot answers
// every query operation byte-identically to the process that encoded
// it. That property is what makes snapshots safe to cache on disk
// (DiskStore) and to serve from any node of a shard fleet.

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
	})
}

// DecodeSnapshot reads a snapshot written by EncodeSnapshot,
// reconstructing the terrain and recomputing the contour spectrum from
// the decoded tree. Corrupt input errors; nothing panics.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	rec, err := scalarfield.LoadSnapshot(r)
	if err != nil {
		return nil, err
	}
	return snapshotFromRecord(rec), nil
}

// snapshotFromRecord bundles a decoded record into a Snapshot,
// recomputing the contour spectrum from the decoded tree.
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
		Spectrum:    contour.NewSpectrum(rec.Terrain.Tree),
	}
}

// DecodeSnapshotFileMapped decodes a snapshot file with its graph
// section mmap'd in place (internal/mmapio) instead of copied to the
// heap: the adjacency of a cold-served graph stays backed by clean
// file pages the kernel can reclaim. The graph section is always
// verified in full. The returned snapshot carries a reference count
// wired to the mapping — the caller owns the creation reference and
// must balance it with Release.
func DecodeSnapshotFileMapped(path string) (*Snapshot, error) {
	return decodeSnapshotFile(path, true, nil)
}

// decodeSnapshotFile decodes a snapshot file, mapping its graph
// section when mapped is set and reading it onto the heap otherwise.
// Heap-backed snapshots carry no reference count; Release is a no-op.
//
// donor, when non-nil, is an open snapshot the caller has retained
// once for this call. If the file's graph section is byte-identical to
// the donor's graph, the decoded snapshot adopts that graph and the
// donor's mappingRef, and the caller's retained reference becomes the
// new snapshot's creation reference. Otherwise (and on error) the
// donor is released here.
func decodeSnapshotFile(path string, mapped bool, donor *Snapshot) (*Snapshot, error) {
	var have *graph.Graph
	if donor != nil {
		have = donor.Graph
	}
	adopted := false
	defer func() {
		if donor != nil && !adopted {
			donor.Release()
		}
	}()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	// The mapping outlives the descriptor (mmapio's contract), so the
	// file can close as soon as decoding ends, mapped or not.
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	var mapGraph scalarfield.GraphSectionMapper
	if mapped {
		mapGraph = func(off, length int64) ([]byte, func(), error) {
			m, err := mmapio.MapFile(f, off, length)
			if err != nil {
				return nil, nil, err
			}
			return m.Data(), func() { m.Close() }, nil
		}
	}
	rec, release, err := scalarfield.LoadSnapshotFile(f, st.Size(), mapGraph, have)
	if err != nil {
		return nil, fmt.Errorf("query: decoding snapshot file %s: %w", path, err)
	}
	snap := snapshotFromRecord(rec)
	switch {
	case have != nil && rec.Graph == have:
		adopted = true
		snap.ref = donor.ref
	case mapped:
		snap.ref = newMappedSnapshotRef(release)
	}
	return snap, nil
}

// DecodeSnapshotKey reads only the identity of a stored snapshot —
// the cheap path DiskStore uses to index a directory at startup.
func DecodeSnapshotKey(r io.Reader) (Key, error) {
	rec, err := scalarfield.DecodeSnapshotMeta(r)
	if err != nil {
		return Key{}, err
	}
	return Key{Dataset: rec.Dataset, Measure: rec.Measure, Color: rec.Color, Bins: rec.Bins}, nil
}
