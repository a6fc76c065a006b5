package query

import (
	"bytes"
	"testing"

	scalarfield "repro"
	"repro/internal/contour"
	"repro/internal/datasets"
)

// TestSharedPassSnapshotBytes pins the served bytes of the centrality
// key: the engine analyzes (GrQc at scale 0.25, betweenness-sampled
// height, closeness color) through the analyzer's shared pass, and its
// encoded snapshot must equal, byte for byte, a snapshot built from
// the two registry fields computed one at a time.
func TestSharedPassSnapshotBytes(t *testing.T) {
	g, err := datasets.Generate("GrQc", 0.25, 42)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{})
	e.RegisterDataset("GrQc", g)
	key := Key{Dataset: "GrQc", Measure: "betweenness-sampled", Color: "closeness"}
	snap, err := e.Snapshot(key)
	if err != nil {
		t.Fatal(err)
	}
	values, _, err := scalarfield.MeasureValues(g, key.Measure, false)
	if err != nil {
		t.Fatal(err)
	}
	colors, _, err := scalarfield.MeasureValues(g, key.Color, false)
	if err != nil {
		t.Fatal(err)
	}
	terr, err := scalarfield.NewVertexTerrain(g, values)
	if err != nil {
		t.Fatal(err)
	}
	if err := terr.ColorByValues(colors); err != nil {
		t.Fatal(err)
	}
	registry := &Snapshot{
		Key: key, Seq: snap.Seq, Graph: g,
		Values: values, ColorValues: colors,
		Terrain: terr, Spectrum: contour.NewSpectrum(terr.Tree),
	}
	var got, want bytes.Buffer
	if err := EncodeSnapshot(&got, snap); err != nil {
		t.Fatal(err)
	}
	if err := EncodeSnapshot(&want, registry); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("engine snapshot (%d bytes) differs from the registry-path snapshot (%d bytes)", got.Len(), want.Len())
	}
}
