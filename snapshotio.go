package scalarfield

// The snapshot wire format: one versioned binary container holding
// every product of an analysis run — the CSR graph, the raw height
// (and optional color) field, the super scalar tree with its index,
// and the contour spectrum — in length-prefixed sections, so the whole
// immutable bundle the query layer serves from can leave the process:
// cached on disk, shipped to a peer shard, reloaded after a restart.
// The paper frames the entire pipeline as derived, immutable artifacts
// of a scalar graph; this file is that property made portable.
//
// Container layout (internal/wire framing, magic "SFSN", version 3):
//
//	meta — dataset, measure, color, bins, seq, edge basis
//	layo — terrain layout options (margin, min share, strategy)
//	csr2 — the CSR graph's arena, verbatim (internal/graph arena.go)
//	hght — raw height field, one f64 per vertex or edge
//	colr — raw color field (present only when colored)
//	tree — the super scalar tree with its index (internal/core SFST)
//	spec — the contour spectrum: levels (f64), then component and
//	       item counts (i64), one of each per level
//	sums — one (tag, CRC-32C) pair per section above, in order
//	       (wire.Checksum)
//
// Every number is little-endian, and every array is stored verbatim
// with no count: its section's length says how many words it holds.
// Before each of csr2, hght, colr, tree and spec the writer puts a
// "pad0" section of 0–7 zero bytes (it is skipped on decode and
// covered by no checksum) wherever that payload would otherwise not
// start at a multiple of 8 from the start of the container. A
// page-aligned mapping of the file, or an 8-aligned heap copy of it,
// then holds every array 8-aligned, and the decoders view the arrays
// in place instead of converting them. A misaligned image, or a
// big-endian host, gets one converted copy of each array instead.
// Version 3 is the only container version a decoder accepts.
//
// Two decoders read the container, and both check every checksum in
// the sums section first: a container whose sections do not match
// their sums, or that lacks one, is rejected.
//
//   - DecodeSnapshotImage trusts nothing else either. It verifies the
//     graph (graph.GraphFromArena), rejects NaN in the fields and the
//     tree, validates the tree and rebuilds its index and the spectrum
//     from the parents, scalars and item mapping, and rejects bytes
//     whose stored index or spectrum differs from the rebuilt one.
//     Peer bytes, LoadSnapshot and every public decode take it.
//   - DecodeSnapshotImageTrusted is for containers the caller wrote
//     itself (the disk store's own files): once the checksums hold it
//     checks only the O(1) header and length consistency, then views
//     the graph (graph.GraphFromArenaTrusted), the fields, the tree,
//     its index and the spectrum in the image. It decodes no element,
//     builds no index or spectrum, and runs no validation scan.
//
// On any bytes DecodeSnapshotImage accepts, both decoders return equal
// records. The checksums are what stand between the trusted decoder
// and a torn or damaged file: the disk store renames a new file into
// place without an fsync, so a crash can leave a partial one behind.
//
// Every key of a dataset stores the same graph, so a reader that
// already holds it need not verify it again: the decoders' have
// argument names such a graph, and a csr2 payload byte-identical to
// its arena decodes to that graph with no verification scan. The
// bytes are still compared in full; only the scan, whose answer is
// then already known, is skipped, and so is the section's checksum
// when the sums record the held graph's own (graph.ArenaChecksum,
// computed once per graph). The disk store passes an open
// snapshot's graph, so it verifies each distinct arena once while a
// snapshot serving it stays open; peer bytes and the stream decoder
// pass nil and always verify.
//
// Alias lifetime: a decoded record ALIASES the container image — the
// buffer LoadSnapshot read, the peer bytes query.DecodeSnapshot was
// handed, or the whole-file mapping on the mmap path. The graph (unless
// it was adopted from have, in which case it is have and aliases
// whatever have does), the height and color fields, the tree's arrays
// and index, and the spectrum's curves are all views of it for their
// whole lifetime. Callers must not mutate the image or anything in the
// record, and must keep any backing mapping alive (see
// query.Snapshot.Release) until the record is unreachable.
//
// Unknown sections are skipped on decode (the sums still cover them),
// so future writers can append fields without breaking old readers.
// The terrain layout is NOT stored: it is a deterministic function of
// the tree and the layout options, built lazily on first read, so a
// decoded snapshot answers every query byte-identically to the process
// that produced it.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/contour"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/terrain"
	"repro/internal/wire"
)

const (
	snapshotMagic   = "SFSN"
	snapshotVersion = 3
)

// snapshotHeaderLen is the container prologue: 4-byte magic + 1
// version byte. Section payload offsets are measured from it.
const snapshotHeaderLen = 5

// sectionHeaderLen is the per-section framing: 4-byte tag + u64 length.
const sectionHeaderLen = wire.TagLen + 8

// sumLen is one sums entry: a section tag and its payload's CRC-32C.
const sumLen = wire.TagLen + 4

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
	// Spectrum is the contour spectrum of Terrain's tree. SaveSnapshot
	// computes it when it is nil; a non-nil one must be that tree's
	// spectrum (contour.NewSpectrum), as DecodeSnapshotImage rejects
	// any other.
	Spectrum *Spectrum
}

// snapshotWriter emits a container's sections, keeping the offset
// that alignment needs and the sums that end the container.
type snapshotWriter struct {
	w    *wire.Writer
	off  int64  // container offset of the next section header
	sums []byte // the sums payload so far
	err  error
}

// write emits one section, unchecksummed.
func (sw *snapshotWriter) write(tag string, payload []byte) {
	if sw.err == nil {
		sw.err = sw.w.Section(tag, payload)
		sw.off += sectionHeaderLen + int64(len(payload))
	}
}

// section emits one checksummed section.
func (sw *snapshotWriter) section(tag string, payload []byte) {
	sw.sums = append(sw.sums, tag...)
	sw.sums = binary.LittleEndian.AppendUint32(sw.sums, wire.Checksum(payload))
	sw.write(tag, payload)
}

// aligned emits one checksummed section whose payload starts at a
// multiple of 8, preceded by a pad0 section when it would not.
func (sw *snapshotWriter) aligned(tag string, payload []byte) {
	if (sw.off+sectionHeaderLen)%8 != 0 {
		sw.write("pad0", make([]byte, (8-(sw.off+2*sectionHeaderLen)%8)%8))
	}
	sw.section(tag, payload)
}

// SaveSnapshot writes one analysis in the snapshot wire format above.
// The graph bytes go out verbatim from the graph's own arena, and the
// fields, tree and spectrum as their arrays: encoding does no
// per-edge work.
func SaveSnapshot(w io.Writer, rec *SnapshotRecord) error {
	if rec.Graph == nil || rec.Terrain == nil || rec.Terrain.Tree == nil {
		return fmt.Errorf("scalarfield: SaveSnapshot needs a graph and a terrain with a tree")
	}
	ww, err := wire.NewWriter(w, snapshotMagic, snapshotVersion)
	if err != nil {
		return err
	}
	sw := &snapshotWriter{w: ww, off: snapshotHeaderLen}

	var meta wire.Payload
	meta.PutString(rec.Dataset)
	meta.PutString(rec.Measure)
	meta.PutString(rec.Color)
	meta.PutInt64(int64(rec.Bins))
	meta.PutUint64(rec.Seq)
	meta.PutBool(rec.Edge)
	sw.section("meta", meta.Bytes())

	var layo wire.Payload
	layo.PutFloat64(rec.Layout.Margin)
	layo.PutFloat64(rec.Layout.MinShare)
	layo.PutInt64(int64(rec.Layout.Strategy))
	sw.section("layo", layo.Bytes())

	sw.aligned("csr2", graph.ArenaWireBytes(rec.Graph))
	sw.aligned("hght", wire.AppendFloat64s(nil, rec.Values))
	if rec.ColorValues != nil {
		sw.aligned("colr", wire.AppendFloat64s(nil, rec.ColorValues))
	}
	tree, _ := rec.Terrain.Tree.AppendBinary(nil)
	sw.aligned("tree", tree)

	sp := rec.Spectrum
	if sp == nil {
		sp = contour.NewSpectrum(rec.Terrain.Tree)
	}
	spec := wire.AppendFloat64s(make([]byte, 0, 24*len(sp.Levels)), sp.Levels)
	spec = wire.AppendInts(spec, sp.Components)
	sw.aligned("spec", wire.AppendInts(spec, sp.Items))

	sw.write("sums", sw.sums)
	if sw.err != nil {
		return sw.err
	}
	return ww.Flush()
}

// snapshotSections holds the payloads of the sections a decoder reads,
// sub-slices of the container image; a nil payload is a missing
// section. adopt reports that the csr2 payload repeats the held graph.
type snapshotSections struct {
	meta, layo, csr2, hght, colr, tree, spec []byte
	adopt                                    bool
}

// slot returns where the payload of a section with the given tag
// goes, or nil for a tag the decoders skip.
func (ss *snapshotSections) slot(tag string) *[]byte {
	switch tag {
	case "meta":
		return &ss.meta
	case "layo":
		return &ss.layo
	case "csr2":
		return &ss.csr2
	case "hght":
		return &ss.hght
	case "colr":
		return &ss.colr
	case "tree":
		return &ss.tree
	case "spec":
		return &ss.spec
	}
	return nil
}

// walkSnapshot checks img's header and version and every section
// against the sums section that must end it, and returns the payloads
// of the sections the decoders read. It allocates nothing.
//
// A csr2 payload equal in full to the arena of have, the graph the
// caller holds, is not checksummed again: when the sums record have's
// own checksum for it, its checksum holds by that equality.
func walkSnapshot(img []byte, have *Graph) (ss snapshotSections, err error) {
	s, err := wire.Walk(img, snapshotMagic, snapshotVersion)
	if err != nil {
		return ss, fmt.Errorf("scalarfield: snapshot: %w", err)
	}
	if s.Version != snapshotVersion {
		return ss, fmt.Errorf("scalarfield: unsupported snapshot version %d (want %d)", s.Version, snapshotVersion)
	}
	// The sums section is the last one: a first pass over a copy of
	// the walker finds it before the second checks what it covers.
	probe := s
	var sums []byte
	for probe.Next() {
		sums = nil
		if probe.Tag() == "sums" {
			sums = probe.Payload()
		}
	}
	if err := probe.Err(); err != nil {
		return ss, fmt.Errorf("scalarfield: snapshot: %w", err)
	}
	if sums == nil {
		return ss, fmt.Errorf("scalarfield: snapshot does not end with a sums section")
	}
	for s.Next() {
		// tag never escapes, so reading it allocates nothing; the error
		// paths read it again.
		tag, payload := s.Tag(), s.Payload()
		switch {
		case tag == "pad0":
			continue
		case tag == "sums":
			if len(sums) != 0 {
				return ss, fmt.Errorf("scalarfield: snapshot sums list %d sections that are missing", len(sums)/sumLen)
			}
			return ss, nil
		case len(sums) < sumLen || string(sums[:wire.TagLen]) != tag:
			return ss, fmt.Errorf("scalarfield: snapshot section %q is not the next one the sums list", s.Tag())
		}
		sum := binary.LittleEndian.Uint32(sums[wire.TagLen:])
		sums = sums[sumLen:]
		if tag == "csr2" && have != nil && sum == have.ArenaChecksum() &&
			bytes.Equal(payload, graph.ArenaWireBytes(have)) {
			ss.adopt = true
		} else if wire.Checksum(payload) != sum {
			return ss, fmt.Errorf("scalarfield: snapshot section %q fails its checksum", s.Tag())
		}
		if slot := ss.slot(tag); slot != nil {
			if *slot != nil {
				return ss, fmt.Errorf("scalarfield: snapshot has two %s sections", s.Tag())
			}
			*slot = payload
		}
	}
	return ss, fmt.Errorf("scalarfield: snapshot sums section not reached")
}

// decodeSnapshot decodes the checked sections of a container into a
// record, viewing every array in the image. trusted skips every check
// whose cost grows with the data (see the container comment); have is
// the graph the caller holds (see DecodeSnapshotImage).
func decodeSnapshot(ss *snapshotSections, have *Graph, trusted bool) (*SnapshotRecord, error) {
	switch {
	case ss.meta == nil:
		return nil, fmt.Errorf("scalarfield: snapshot missing meta section")
	case ss.csr2 == nil:
		return nil, fmt.Errorf("scalarfield: snapshot missing graph section")
	case ss.hght == nil:
		return nil, fmt.Errorf("scalarfield: snapshot missing height section")
	case ss.tree == nil:
		return nil, fmt.Errorf("scalarfield: snapshot missing tree section")
	case ss.spec == nil:
		return nil, fmt.Errorf("scalarfield: snapshot missing spectrum section")
	}
	rec := &SnapshotRecord{}
	if err := decodeSnapshotMeta(wire.NewPayload(ss.meta), rec); err != nil {
		return nil, err
	}
	if ss.layo != nil {
		if err := decodeLayout(wire.NewPayload(ss.layo), &rec.Layout); err != nil {
			return nil, fmt.Errorf("scalarfield: snapshot layo section: %w", err)
		}
	}

	var err error
	switch {
	case ss.adopt:
		rec.Graph = have
	case trusted:
		rec.Graph, err = graph.GraphFromArenaTrusted(ss.csr2)
	default:
		// Verification is the read-only arena scan: corrupt bytes are
		// an error here, never a panic in a later traversal.
		rec.Graph, err = graph.GraphFromArena(ss.csr2)
	}
	if err != nil {
		return nil, fmt.Errorf("scalarfield: snapshot csr2 section: %w", err)
	}
	items := rec.Graph.NumVertices()
	if rec.Edge {
		items = rec.Graph.NumEdges()
	}
	if rec.Values, err = decodeField(ss.hght, items, trusted); err != nil {
		return nil, fmt.Errorf("scalarfield: snapshot height section: %w", err)
	}
	if ss.colr != nil {
		if rec.ColorValues, err = decodeField(ss.colr, items, trusted); err != nil {
			return nil, fmt.Errorf("scalarfield: snapshot color section: %w", err)
		}
	}

	var tree *core.SuperTree
	if trusted {
		tree, err = core.DecodeSuperTreeTrusted(ss.tree)
	} else {
		tree, err = core.DecodeSuperTree(ss.tree)
	}
	if err != nil {
		return nil, fmt.Errorf("scalarfield: snapshot tree section: %w", err)
	}
	if tree.NumItems() != items {
		return nil, fmt.Errorf("scalarfield: snapshot tree spans %d items for a %d-item field", tree.NumItems(), items)
	}
	if rec.Spectrum, err = decodeSpectrum(ss.spec, tree, trusted); err != nil {
		return nil, fmt.Errorf("scalarfield: snapshot spectrum section: %w", err)
	}

	// The terrain is rebuilt exactly as the analyzer built it: the tree
	// wrapped with the stored layout options, whose geometry builds
	// lazily on first read; a stored color field then recolors,
	// mirroring AnalyzeAll's ColorBy path.
	t := newTerrain(tree, TerrainOptions{Layout: rec.Layout})
	if rec.Color != "" && rec.ColorValues != nil {
		if err := t.ColorByValues(rec.ColorValues); err != nil {
			return nil, fmt.Errorf("scalarfield: snapshot terrain recoloring: %w", err)
		}
	}
	rec.Terrain = t
	return rec, nil
}

// decodeLayout reads the layo section.
func decodeLayout(p *wire.Payload, o *terrain.LayoutOptions) error {
	var err error
	if o.Margin, err = p.Float64(); err != nil {
		return err
	}
	if o.MinShare, err = p.Float64(); err != nil {
		return err
	}
	strategy, err := p.Int64()
	o.Strategy = terrain.Strategy(strategy)
	return err
}

// decodeField views a stored scalar field of the given length. Unless
// trusted, it rejects NaN as the field constructors
// (core.NewVertexField, NewEdgeField) do.
func decodeField(payload []byte, items int, trusted bool) ([]float64, error) {
	if len(payload) != 8*items {
		return nil, fmt.Errorf("%d bytes for %d values", len(payload), items)
	}
	values := wire.Float64s(payload)
	if !trusted {
		for i, v := range values {
			if math.IsNaN(v) {
				return nil, fmt.Errorf("value %d is NaN", i)
			}
		}
	}
	return values, nil
}

// decodeSpectrum views the stored spectrum of tree. Unless trusted, it
// rebuilds the spectrum from the tree and rejects a stored one that
// differs in any bit.
func decodeSpectrum(payload []byte, tree *core.SuperTree, trusted bool) (*Spectrum, error) {
	if len(payload)%24 != 0 {
		return nil, fmt.Errorf("%d bytes is not a whole number of levels", len(payload))
	}
	levels := len(payload) / 24
	sp := &Spectrum{
		Levels:     wire.Float64s(payload[:8*levels]),
		Components: wire.Ints(payload[8*levels : 16*levels]),
		Items:      wire.Ints(payload[16*levels:]),
	}
	if !trusted {
		want := contour.NewSpectrum(tree)
		sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		if !slices.EqualFunc(sp.Levels, want.Levels, sameBits) ||
			!slices.Equal(sp.Components, want.Components) || !slices.Equal(sp.Items, want.Items) {
			return nil, fmt.Errorf("stored spectrum differs from the tree's")
		}
	}
	return sp, nil
}

// LoadSnapshot decodes a snapshot written by SaveSnapshot and
// reconstructs its terrain. Corrupt or truncated input returns an
// error; nothing panics. Cross-field consistency (field lengths vs
// graph size vs tree items, tree validity, stored index and spectrum)
// is verified before anything is returned.
//
// The container is read into one buffer and decoded by
// DecodeSnapshotImage; the record views that buffer rather than
// copying out of it, so the buffer lives as long as the record.
func LoadSnapshot(r io.Reader) (*SnapshotRecord, error) {
	// io.Copy reads an in-memory source (bytes.Reader's WriteTo) in
	// one exact-size allocation, and grows geometrically otherwise.
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		return nil, fmt.Errorf("scalarfield: reading snapshot: %w", err)
	}
	return DecodeSnapshotImage(buf.Bytes(), nil)
}

// DecodeSnapshotImage decodes and verifies a snapshot from img, the
// whole container in memory — a heap buffer or a mapping of a snapshot
// file — and reconstructs its terrain. Corrupt or truncated input
// returns an error, never a panic: the checksums, the graph, the
// fields, the tree, its stored index and the stored spectrum are all
// checked (see the container comment). The record views img (see
// "Alias lifetime" above), which must stay unmodified and alive as
// long as the record is in use.
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
	ss, err := walkSnapshot(img, have)
	if err != nil {
		return nil, err
	}
	return decodeSnapshot(&ss, have, false)
}

// DecodeSnapshotImageTrusted is DecodeSnapshotImage for a container the
// caller wrote itself. It checks the sums, the headers and the lengths
// and then views every array in img: no element is decoded, no index
// or spectrum rebuilt, and neither the graph nor the tree is scanned.
// Given bytes no writer produced that still match their sums, it may
// return a record whose reads give wrong answers or panic; on bytes
// DecodeSnapshotImage accepts, it returns an equal record. have works
// as in DecodeSnapshotImage, except that a graph that is not adopted
// is viewed unverified (graph.GraphFromArenaTrusted).
func DecodeSnapshotImageTrusted(img []byte, have *Graph) (*SnapshotRecord, error) {
	ss, err := walkSnapshot(img, have)
	if err != nil {
		return nil, err
	}
	return decodeSnapshot(&ss, have, true)
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
// img, without decoding the graph, fields, or tree, or checking any
// checksum. img may be a prefix of the container: the walk stops at
// the meta section, which SaveSnapshot writes first, so disk-backed
// snapshot stores index a directory of snapshot files cheaply at
// startup from each file's first bytes. It accepts any version up to
// the current one, so a leftover older file is indexed and then
// quarantined by its first full decode.
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
