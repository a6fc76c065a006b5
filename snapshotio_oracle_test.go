package scalarfield

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"repro/internal/contour"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/terrain"
	"repro/internal/wire"
)

// graphSectionMapper supplies the csr2 section's bytes to
// loadSnapshotFileOracle: given the payload's offset and length in the
// file, it returns a buffer holding exactly those bytes plus a release
// callback.
type graphSectionMapper func(offset, length int64) (data []byte, release func(), err error)

// loadSnapshotFileOracle is the io.ReaderAt section walker that
// DecodeSnapshotImage replaced, kept as the differential oracle for
// FuzzSnapshotCodec: a pread per section header, a staging copy per
// section, each checksum folded in 32 KiB pieces, the csr2 payload
// compared with have in 32 KiB chunks or handed to mapGraph (nil reads
// it onto the heap), fields decoded one value at a time with NaN
// rejected, the tree read by core.ReadSuperTree and the spectrum
// compared with contour.NewSpectrum one level at a time. It shares
// only the meta decoder with the production decoder.
func loadSnapshotFileOracle(r io.ReaderAt, size int64, mapGraph graphSectionMapper, have *Graph) (*SnapshotRecord, func(), error) {
	release := func() {}
	readRange := func(off, length int64) ([]byte, func(), error) {
		buf := make([]byte, length)
		// An empty read at the end of a bytes.Reader is io.EOF; a file
		// (what this walker read in production) returns nil.
		if _, err := r.ReadAt(buf, off); err != nil && length > 0 {
			return nil, nil, err
		}
		return buf, func() {}, nil
	}
	if mapGraph == nil {
		mapGraph = readRange
	}
	if size < snapshotHeaderLen {
		return nil, release, fmt.Errorf("oracle: snapshot file truncated: %d bytes", size)
	}
	var head [snapshotHeaderLen]byte
	if _, err := r.ReadAt(head[:], 0); err != nil {
		return nil, release, err
	}
	if string(head[:4]) != snapshotMagic || head[4] != snapshotVersion {
		return nil, release, fmt.Errorf("oracle: bad snapshot header %q", head[:])
	}
	fail := func(err error) (*SnapshotRecord, func(), error) {
		release()
		return nil, func() {}, err
	}

	// Frame every section, then check the sums that must end them.
	type section struct {
		tag         string
		off, length int64
	}
	var sections []section
	for off := int64(snapshotHeaderLen); off < size; {
		if size-off < sectionHeaderLen {
			return fail(fmt.Errorf("oracle: snapshot torn mid-section at offset %d", off))
		}
		var sh [sectionHeaderLen]byte
		if _, err := r.ReadAt(sh[:], off); err != nil {
			return fail(err)
		}
		length := binary.LittleEndian.Uint64(sh[wire.TagLen:])
		payloadOff := off + sectionHeaderLen
		if length > uint64(size-payloadOff) {
			return fail(fmt.Errorf("oracle: section %q declares %d bytes, only %d remain", sh[:wire.TagLen], length, size-payloadOff))
		}
		sections = append(sections, section{string(sh[:wire.TagLen]), payloadOff, int64(length)})
		off = payloadOff + int64(length)
	}
	if len(sections) == 0 || sections[len(sections)-1].tag != "sums" {
		return fail(fmt.Errorf("oracle: snapshot does not end with a sums section"))
	}
	last := sections[len(sections)-1]
	sums, _, err := readRange(last.off, last.length)
	if err != nil {
		return fail(err)
	}
	payloads := map[string]section{}
	for _, sec := range sections[:len(sections)-1] {
		if sec.tag == "pad0" {
			continue
		}
		if sec.tag == "sums" {
			return fail(fmt.Errorf("oracle: two sums sections"))
		}
		if len(sums) < 8 || string(sums[:4]) != sec.tag {
			return fail(fmt.Errorf("oracle: section %q is not the next one the sums list", sec.tag))
		}
		sum, err := crcOracle(r, sec.off, sec.length)
		if err != nil {
			return fail(err)
		}
		if sum != binary.LittleEndian.Uint32(sums[4:]) {
			return fail(fmt.Errorf("oracle: section %q fails its checksum", sec.tag))
		}
		sums = sums[8:]
		if _, dup := payloads[sec.tag]; dup {
			return fail(fmt.Errorf("oracle: two %q sections", sec.tag))
		}
		payloads[sec.tag] = sec
	}
	if len(sums) != 0 {
		return fail(fmt.Errorf("oracle: sums list missing sections"))
	}
	read := func(tag string) (*wire.Payload, bool, error) {
		sec, ok := payloads[tag]
		if !ok {
			return nil, false, nil
		}
		buf, _, err := readRange(sec.off, sec.length)
		return wire.NewPayload(buf), true, err
	}

	rec := &SnapshotRecord{}
	p, ok, err := read("meta")
	if err != nil || !ok {
		return fail(fmt.Errorf("oracle: meta section: %v", err))
	}
	if err := decodeSnapshotMeta(p, rec); err != nil {
		return fail(err)
	}
	if p, ok, err = read("layo"); err != nil {
		return fail(err)
	} else if ok {
		if rec.Layout.Margin, err = p.Float64(); err != nil {
			return fail(err)
		}
		if rec.Layout.MinShare, err = p.Float64(); err != nil {
			return fail(err)
		}
		strategy, err := p.Int64()
		if err != nil {
			return fail(err)
		}
		rec.Layout.Strategy = terrain.Strategy(strategy)
	}

	csr2, ok := payloads["csr2"]
	if !ok {
		return fail(fmt.Errorf("oracle: missing csr2 section"))
	}
	if have != nil {
		same, err := sameBytesOracle(r, csr2.off, csr2.length, graph.ArenaWireBytes(have))
		if err != nil {
			return fail(err)
		}
		if same {
			rec.Graph = have
		}
	}
	if rec.Graph == nil {
		data, rel, err := mapGraph(csr2.off, csr2.length)
		if err != nil {
			return fail(err)
		}
		if rec.Graph, err = graph.GraphFromArena(data); err != nil {
			rel()
			return fail(err)
		}
		release = rel
	}
	items := rec.Graph.NumVertices()
	if rec.Edge {
		items = rec.Graph.NumEdges()
	}

	if p, ok, err = read("hght"); err != nil || !ok {
		return fail(fmt.Errorf("oracle: height section: %v", err))
	}
	if rec.Values, err = oracleField(p, items); err != nil {
		return fail(err)
	}
	if p, ok, err = read("colr"); err != nil {
		return fail(err)
	} else if ok {
		if rec.ColorValues, err = oracleField(p, items); err != nil {
			return fail(err)
		}
	}
	if p, ok, err = read("tree"); err != nil || !ok {
		return fail(fmt.Errorf("oracle: tree section: %v", err))
	}
	tree, err := core.ReadSuperTree(bytes.NewReader(p.Bytes()))
	if err != nil {
		return fail(err)
	}
	if tree.NumItems() != items {
		return fail(fmt.Errorf("oracle: tree spans %d items for %d", tree.NumItems(), items))
	}
	if p, ok, err = read("spec"); err != nil || !ok {
		return fail(fmt.Errorf("oracle: spectrum section: %v", err))
	}
	if rec.Spectrum, err = oracleSpectrum(p, tree); err != nil {
		return fail(err)
	}

	t := newTerrain(tree, TerrainOptions{Layout: rec.Layout})
	if rec.Color != "" && rec.ColorValues != nil {
		if err := t.ColorByValues(rec.ColorValues); err != nil {
			return fail(err)
		}
	}
	rec.Terrain = t
	return rec, release, nil
}

// crcOracle folds the CRC-32C of length bytes of r at off in 32 KiB
// pieces.
func crcOracle(r io.ReaderAt, off, length int64) (uint32, error) {
	buf := make([]byte, min(length, 32<<10))
	var sum uint32
	for length > 0 {
		n := min(length, int64(len(buf)))
		if _, err := r.ReadAt(buf[:n], off); err != nil {
			return 0, err
		}
		sum = crc32.Update(sum, crc32.MakeTable(crc32.Castagnoli), buf[:n])
		off, length = off+n, length-n
	}
	return sum, nil
}

// oracleField reads a field of exactly items f64 values one at a
// time, rejecting NaN.
func oracleField(p *wire.Payload, items int) ([]float64, error) {
	if p.Remaining() != 8*items {
		return nil, fmt.Errorf("oracle: %d field bytes for %d items", p.Remaining(), items)
	}
	out := make([]float64, items)
	for i := range out {
		var err error
		if out[i], err = p.Float64(); err != nil {
			return nil, err
		}
		if math.IsNaN(out[i]) {
			return nil, fmt.Errorf("oracle: value %d is NaN", i)
		}
	}
	return out, nil
}

// oracleSpectrum reads a stored spectrum one word at a time and
// rejects it unless it equals the tree's, level bits included.
func oracleSpectrum(p *wire.Payload, tree *core.SuperTree) (*Spectrum, error) {
	want := contour.NewSpectrum(tree)
	levels := len(want.Levels)
	if p.Remaining() != 24*levels {
		return nil, fmt.Errorf("oracle: %d spectrum bytes for %d levels", p.Remaining(), levels)
	}
	sp := &Spectrum{Levels: make([]float64, levels), Components: make([]int, levels), Items: make([]int, levels)}
	for i := range sp.Levels {
		bits, _ := p.Uint64()
		if bits != math.Float64bits(want.Levels[i]) {
			return nil, fmt.Errorf("oracle: level %d differs", i)
		}
		sp.Levels[i] = math.Float64frombits(bits)
	}
	for _, curve := range [][]int{sp.Components, sp.Items} {
		for i := range curve {
			v, _ := p.Int64()
			curve[i] = int(v)
		}
	}
	if !slices.Equal(sp.Components, want.Components) || !slices.Equal(sp.Items, want.Items) {
		return nil, fmt.Errorf("oracle: spectrum curves differ")
	}
	return sp, nil
}

// sameBytesOracle reports whether the length bytes of r at off equal
// want, reading them in 32 KiB pieces.
func sameBytesOracle(r io.ReaderAt, off, length int64, want []byte) (bool, error) {
	if length != int64(len(want)) {
		return false, nil
	}
	buf := make([]byte, min(length, 32<<10))
	for len(want) > 0 {
		n := min(len(want), len(buf))
		if _, err := r.ReadAt(buf[:n], off); err != nil {
			return false, err
		}
		if !bytes.Equal(buf[:n], want[:n]) {
			return false, nil
		}
		off += int64(n)
		want = want[n:]
	}
	return true, nil
}
