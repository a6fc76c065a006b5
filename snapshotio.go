package scalarfield

// The snapshot wire format: one versioned binary container holding
// every product of an analysis run — the CSR graph, the raw height
// (and optional color) field, and the super scalar tree — in
// length-prefixed sections, so the whole immutable bundle the query
// layer serves from can leave the process: cached on disk, shipped to
// a peer shard, reloaded after a restart. The paper frames the entire
// pipeline as derived, immutable artifacts of a scalar graph; this
// file is that property made portable.
//
// Container layout (internal/wire framing, magic "SFSN", version 2):
//
//	meta — dataset, measure, color, bins, seq, edge basis
//	layo — terrain layout options (margin, min share, strategy)
//	pad0 — 0–7 zero bytes aligning the next payload to 8 (skipped)
//	csr2 — the CSR graph's arena, verbatim (internal/graph arena.go)
//	hght — raw height field, one f64 per vertex or edge
//	colr — raw color field (present only when colored)
//	tree — the super scalar tree (internal/core codec, reused as-is)
//
// The csr2 section is the graph's contiguous arena written verbatim,
// so decoding it is header-validate + alias — O(header) plus one
// read-only verification scan, no per-edge rebuild. A snapshot decodes
// from one in-memory image of the whole container
// (DecodeSnapshotImage): a heap buffer, or a mapping of a snapshot
// file that the graph is then served from in place. The "pad0" section
// exists only so the csr2 payload starts at a container offset that is
// a multiple of 8: a page-aligned mapping of the file, or an 8-aligned
// heap copy of it, then yields an 8-aligned arena the graph views can
// alias directly. Version 2 is the only container version a decoder
// accepts.
//
// Every key of a dataset stores the same graph, so a reader that
// already holds it need not verify it again: DecodeSnapshotImage's
// have argument names such a graph, and a csr2 payload byte-identical
// to its arena decodes to that graph with no verification scan. The
// bytes are still compared in full; only the scan, whose answer is
// then already known, is skipped. The disk store passes an open
// snapshot's graph, so it verifies each distinct arena once while a
// snapshot serving it stays open; peer bytes and the stream decoder
// pass nil and always verify.
//
// Alias lifetime: a graph decoded from a csr2 section ALIASES the
// container image — the buffer LoadSnapshot read, the peer bytes
// query.DecodeSnapshot was handed, or the whole-file mapping on the
// mmap path — for its whole lifetime, unless it was
// adopted from have, in which case it is have and aliases whatever
// have does. The fields and the tree never alias the image. Callers
// must not mutate the image and must keep any backing mapping alive
// (see query.Snapshot.Release) until the graph is unreachable.
//
// Unknown sections are skipped on decode, so future writers can append
// fields without breaking old readers. The terrain layout and the
// contour spectrum are NOT stored: both are deterministic functions of
// the tree (and layout options), so LoadSnapshot rebuilds them exactly
// as the original analysis did — a decoded snapshot answers every
// query byte-identically to the process that produced it, at a
// fraction of the bytes.

import (
	"bytes"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/terrain"
	"repro/internal/wire"
)

const (
	snapshotMagic   = "SFSN"
	snapshotVersion = 2
)

// snapshotHeaderLen is the container prologue: 4-byte magic + 1
// version byte. Section payload offsets are measured from it.
const snapshotHeaderLen = 5

// sectionHeaderLen is the per-section framing: 4-byte tag + u64 length.
const sectionHeaderLen = wire.TagLen + 8

// SnapshotRecord is the unit SaveSnapshot writes and LoadSnapshot
// returns: one analysis — identity, inputs, and products — flattened
// to the public API's types. The query engine's Snapshot converts to
// and from it; library users can persist their own analyses with it
// directly.
type SnapshotRecord struct {
	// Dataset, Measure, Color, Bins identify the analysis (the query
	// layer's snapshot key, flattened).
	Dataset string
	Measure string
	Color   string
	Bins    int
	// Seq is the analysis identity number the producing engine
	// assigned; it round-trips verbatim.
	Seq uint64
	// Edge reports whether the fields index edges rather than vertices.
	Edge bool
	// Graph is the analyzed graph.
	Graph *Graph
	// Values is the raw height field; ColorValues the raw color field
	// when Color is set, nil otherwise.
	Values      []float64
	ColorValues []float64
	// Layout holds the layout options the terrain was built with, so
	// reconstruction matches the original. The zero value (the engine's
	// default) round-trips as zero.
	Layout terrain.LayoutOptions
	// Terrain is the analyzed terrain. SaveSnapshot reads only
	// its tree; LoadSnapshot reconstructs it deterministically from the
	// decoded tree, Layout, and color field.
	Terrain *Terrain
}

// SaveSnapshot writes one analysis in the snapshot wire format above.
// The graph bytes go out verbatim from the graph's own arena —
// encoding does no per-edge work.
func SaveSnapshot(w io.Writer, rec *SnapshotRecord) error {
	if rec.Graph == nil || rec.Terrain == nil || rec.Terrain.Tree == nil {
		return fmt.Errorf("scalarfield: SaveSnapshot needs a graph and a terrain with a tree")
	}
	ww, err := wire.NewWriter(w, snapshotMagic, snapshotVersion)
	if err != nil {
		return err
	}

	var meta wire.Payload
	meta.PutString(rec.Dataset)
	meta.PutString(rec.Measure)
	meta.PutString(rec.Color)
	meta.PutInt64(int64(rec.Bins))
	meta.PutUint64(rec.Seq)
	meta.PutBool(rec.Edge)
	if err := ww.Section("meta", meta.Bytes()); err != nil {
		return err
	}

	var layo wire.Payload
	layo.PutFloat64(rec.Layout.Margin)
	layo.PutFloat64(rec.Layout.MinShare)
	layo.PutInt64(int64(rec.Layout.Strategy))
	if err := ww.Section("layo", layo.Bytes()); err != nil {
		return err
	}

	// Align the csr2 payload to a multiple of 8 bytes from the start of
	// the container, so a page-aligned mapping of the file, or the whole
	// container read into one heap buffer, hands the decoder an
	// 8-aligned arena it can alias with no copy.
	off := int64(snapshotHeaderLen) +
		int64(sectionHeaderLen+len(meta.Bytes())) +
		int64(sectionHeaderLen+len(layo.Bytes()))
	csr2PayloadOff := off + 2*sectionHeaderLen // after pad0 and csr2 headers
	pad := int((8 - csr2PayloadOff%8) % 8)
	if err := ww.Section("pad0", make([]byte, pad)); err != nil {
		return err
	}
	if err := ww.Section("csr2", graph.ArenaWireBytes(rec.Graph)); err != nil {
		return err
	}

	var hght wire.Payload
	hght.PutFloat64s(rec.Values)
	if err := ww.Section("hght", hght.Bytes()); err != nil {
		return err
	}
	if rec.ColorValues != nil {
		var colr wire.Payload
		colr.PutFloat64s(rec.ColorValues)
		if err := ww.Section("colr", colr.Bytes()); err != nil {
			return err
		}
	}

	tree, _ := rec.Terrain.Tree.AppendBinary(nil)
	if err := ww.Section("tree", tree); err != nil {
		return err
	}
	return ww.Flush()
}

// snapshotDecoder accumulates the sections DecodeSnapshotImage walks
// and finishes with the cross-field verification and terrain
// reconstruction.
type snapshotDecoder struct {
	rec        *SnapshotRecord
	tree       *core.SuperTree
	haveMeta   bool
	haveValues bool
}

// section decodes one tagged payload, a sub-slice of the container
// image. have is the graph the caller holds (see DecodeSnapshotImage).
// Unknown tags are skipped — the appended-field compatibility path.
func (d *snapshotDecoder) section(tag string, payload []byte, have *Graph) error {
	var err error
	switch tag {
	case "meta":
		if err := decodeSnapshotMeta(wire.NewPayload(payload), d.rec); err != nil {
			return err
		}
		d.haveMeta = true
	case "layo":
		p := wire.NewPayload(payload)
		if d.rec.Layout.Margin, err = p.Float64(); err != nil {
			return fmt.Errorf("scalarfield: snapshot layo section: %w", err)
		}
		if d.rec.Layout.MinShare, err = p.Float64(); err != nil {
			return fmt.Errorf("scalarfield: snapshot layo section: %w", err)
		}
		strategy, err := p.Int64()
		if err != nil {
			return fmt.Errorf("scalarfield: snapshot layo section: %w", err)
		}
		d.rec.Layout.Strategy = terrain.Strategy(strategy)
	case "csr2":
		if d.rec.Graph != nil {
			return fmt.Errorf("scalarfield: snapshot has two csr2 sections")
		}
		if have != nil && bytes.Equal(payload, graph.ArenaWireBytes(have)) {
			d.rec.Graph = have
			return nil
		}
		// Zero-copy: the graph aliases the image from here on.
		// Verification is the read-only arena scan — corrupt bytes are
		// an error here, never a panic in a later traversal.
		if d.rec.Graph, err = graph.GraphFromArena(payload); err != nil {
			return fmt.Errorf("scalarfield: snapshot csr2 section: %w", err)
		}
	case "hght":
		if d.rec.Values, err = decodeField(payload); err != nil {
			return fmt.Errorf("scalarfield: snapshot height section: %w", err)
		}
		d.haveValues = true
	case "colr":
		if d.rec.ColorValues, err = decodeField(payload); err != nil {
			return fmt.Errorf("scalarfield: snapshot color section: %w", err)
		}
	case "tree":
		if d.tree, err = core.DecodeSuperTree(payload); err != nil {
			return fmt.Errorf("scalarfield: snapshot tree section: %w", err)
		}
	}
	return nil
}

// decodeField decodes a stored scalar field, rejecting NaN as the
// field constructors (core.NewVertexField, NewEdgeField) do.
func decodeField(payload []byte) ([]float64, error) {
	values, err := wire.NewPayload(payload).Float64s()
	if err != nil {
		return nil, err
	}
	for i, v := range values {
		if math.IsNaN(v) {
			return nil, fmt.Errorf("value %d is NaN", i)
		}
	}
	return values, nil
}

// finish verifies cross-field consistency and reconstructs the
// terrain exactly as the analyzer built it: the tree (already
// validated by core.DecodeSuperTree) is wrapped with the stored layout
// options, whose geometry builds lazily on first read; a stored color
// field then recolors, mirroring AnalyzeAll's ColorBy path.
func (d *snapshotDecoder) finish() (*SnapshotRecord, error) {
	rec, tree := d.rec, d.tree
	switch {
	case !d.haveMeta:
		return nil, fmt.Errorf("scalarfield: snapshot missing meta section")
	case rec.Graph == nil:
		return nil, fmt.Errorf("scalarfield: snapshot missing graph section")
	case !d.haveValues:
		return nil, fmt.Errorf("scalarfield: snapshot missing height section")
	case tree == nil:
		return nil, fmt.Errorf("scalarfield: snapshot missing tree section")
	}

	items := rec.Graph.NumVertices()
	if rec.Edge {
		items = rec.Graph.NumEdges()
	}
	if len(rec.Values) != items {
		return nil, fmt.Errorf("scalarfield: snapshot height field has %d values for %d items", len(rec.Values), items)
	}
	if rec.ColorValues != nil && len(rec.ColorValues) != items {
		return nil, fmt.Errorf("scalarfield: snapshot color field has %d values for %d items", len(rec.ColorValues), items)
	}
	if tree.NumItems() != items {
		return nil, fmt.Errorf("scalarfield: snapshot tree spans %d items for a %d-item field", tree.NumItems(), items)
	}

	t := newTerrain(tree, TerrainOptions{Layout: rec.Layout})
	if rec.Color != "" && rec.ColorValues != nil {
		if err := t.ColorByValues(rec.ColorValues); err != nil {
			return nil, fmt.Errorf("scalarfield: snapshot terrain recoloring: %w", err)
		}
	}
	rec.Terrain = t
	return rec, nil
}

// LoadSnapshot decodes a snapshot written by SaveSnapshot and
// reconstructs its terrain. Corrupt or truncated input returns an
// error; nothing panics. Cross-field consistency (field lengths vs
// graph size vs tree items, tree validity) is verified before anything
// is returned.
//
// The container is read into one buffer and decoded by
// DecodeSnapshotImage; the graph aliases the csr2 range of that buffer
// rather than copying out of it, so the buffer lives as long as the
// returned record's graph.
func LoadSnapshot(r io.Reader) (*SnapshotRecord, error) {
	// io.Copy reads an in-memory source (bytes.Reader's WriteTo) in
	// one exact-size allocation, and grows geometrically otherwise.
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		return nil, fmt.Errorf("scalarfield: reading snapshot: %w", err)
	}
	return DecodeSnapshotImage(buf.Bytes(), nil)
}

// DecodeSnapshotImage decodes a snapshot from img, the whole container
// in memory — a heap buffer or a mapping of a snapshot file — and
// reconstructs its terrain. Corrupt or truncated input returns an
// error, never a panic. Every section decodes in place from img: the fields and the tree are
// decoded into fresh slices, and the record's graph aliases the csr2
// range of img, which must stay unmodified and alive as long as that
// graph is in use.
//
// have, when non-nil, is a graph the caller already holds verified (or
// built in-process) and expects img to repeat — the disk store passes
// the graph of an open snapshot of the same dataset. A csr2 payload
// equal in full to graph.ArenaWireBytes(have) makes the record's graph
// have itself, so the graph does not alias img and the verification
// scan is skipped, because its answer is already known. Any other
// bytes are verified by graph.GraphFromArena, so a corrupt section is
// rejected exactly as with a nil have.
func DecodeSnapshotImage(img []byte, have *Graph) (*SnapshotRecord, error) {
	s, err := wire.Walk(img, snapshotMagic, snapshotVersion)
	if err != nil {
		return nil, fmt.Errorf("scalarfield: snapshot: %w", err)
	}
	if s.Version != snapshotVersion {
		return nil, fmt.Errorf("scalarfield: unsupported snapshot version %d (want %d)", s.Version, snapshotVersion)
	}
	d := &snapshotDecoder{rec: &SnapshotRecord{}}
	for s.Next() {
		if err := d.section(s.Tag(), s.Payload(), have); err != nil {
			return nil, err
		}
	}
	if err := s.Err(); err != nil {
		return nil, fmt.Errorf("scalarfield: snapshot: %w", err)
	}
	return d.finish()
}

func decodeSnapshotMeta(p *wire.Payload, rec *SnapshotRecord) error {
	var err error
	fail := func(e error) error {
		return fmt.Errorf("scalarfield: snapshot meta section: %w", e)
	}
	if rec.Dataset, err = p.String(); err != nil {
		return fail(err)
	}
	if rec.Measure, err = p.String(); err != nil {
		return fail(err)
	}
	if rec.Color, err = p.String(); err != nil {
		return fail(err)
	}
	bins, err := p.Int64()
	if err != nil {
		return fail(err)
	}
	if bins < 0 || bins > MaxSimplifyBins {
		return fail(fmt.Errorf("implausible bins %d", bins))
	}
	rec.Bins = int(bins)
	if rec.Seq, err = p.Uint64(); err != nil {
		return fail(err)
	}
	if rec.Edge, err = p.Bool(); err != nil {
		return fail(err)
	}
	return nil
}

// DecodeSnapshotMeta reads only the identity block of a stored
// snapshot — dataset, measure, color, bins, seq, edge basis — from
// img, without decoding the graph, fields, or tree. img may be a
// prefix of the container: the walk stops at the meta section, which
// SaveSnapshot writes first, so disk-backed snapshot stores index a
// directory of snapshot files cheaply at startup from each file's
// first bytes. It accepts any version up to the current one, so a
// leftover older file is indexed and then quarantined by its first
// full decode.
func DecodeSnapshotMeta(img []byte) (*SnapshotRecord, error) {
	s, err := wire.Walk(img, snapshotMagic, snapshotVersion)
	if err != nil {
		return nil, fmt.Errorf("scalarfield: snapshot: %w", err)
	}
	for s.Next() {
		if s.Tag() != "meta" {
			continue
		}
		rec := &SnapshotRecord{}
		if err := decodeSnapshotMeta(wire.NewPayload(s.Payload()), rec); err != nil {
			return nil, err
		}
		return rec, nil
	}
	if err := s.Err(); err != nil {
		return nil, fmt.Errorf("scalarfield: snapshot: %w", err)
	}
	return nil, fmt.Errorf("scalarfield: snapshot missing meta section")
}
