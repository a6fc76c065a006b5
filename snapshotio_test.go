package scalarfield

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/wire"
)

func randomSnapshotRecord(t testing.TB, seed int64, n, attempts int, edgeBased, colored bool) *SnapshotRecord {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < attempts; i++ {
		u, v := rng.Int31n(int32(n)), rng.Int31n(int32(n))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	g := b.Build()
	items := g.NumVertices()
	if edgeBased {
		items = g.NumEdges()
		if items == 0 {
			// Algorithm 3 needs at least one edge; fall back to a path.
			b.AddEdge(0, 1)
			g = b.Build()
			items = g.NumEdges()
		}
	}
	values := make([]float64, items)
	for i := range values {
		values[i] = float64(rng.Intn(8)) // ties exercise super-node merging
	}
	var colorValues []float64
	if colored {
		colorValues = make([]float64, items)
		for i := range colorValues {
			colorValues[i] = rng.Float64()
		}
	}

	var terr *Terrain
	var err error
	if edgeBased {
		terr, err = NewEdgeTerrain(g, values)
	} else {
		terr, err = NewVertexTerrain(g, values)
	}
	if err != nil {
		t.Fatal(err)
	}
	rec := &SnapshotRecord{
		Dataset: "fuzz-ds",
		Measure: "fuzz-m",
		Bins:    int(rng.Intn(4)),
		Seq:     rng.Uint64(),
		Edge:    edgeBased,
		Graph:   g,
		Values:  values,
		Terrain: terr,
	}
	if colored {
		rec.Color = "fuzz-c"
		rec.ColorValues = colorValues
		if err := terr.ColorByValues(colorValues); err != nil {
			t.Fatal(err)
		}
	}
	return rec
}

func assertRecordsDeepEqual(t testing.TB, want, got *SnapshotRecord) {
	t.Helper()
	if got.Dataset != want.Dataset || got.Measure != want.Measure ||
		got.Color != want.Color || got.Bins != want.Bins ||
		got.Seq != want.Seq || got.Edge != want.Edge {
		t.Fatalf("meta mismatch: got %+v", got)
	}
	if got.Graph.NumVertices() != want.Graph.NumVertices() ||
		!reflect.DeepEqual(got.Graph.Edges(), want.Graph.Edges()) {
		t.Fatal("graph mismatch after round trip")
	}
	if !reflect.DeepEqual(got.Values, want.Values) {
		t.Fatal("height field mismatch after round trip")
	}
	if !reflect.DeepEqual(got.ColorValues, want.ColorValues) {
		t.Fatal("color field mismatch after round trip")
	}
	wt, gt := want.Terrain, got.Terrain
	if !reflect.DeepEqual(gt.Tree, wt.Tree) {
		t.Fatal("super tree mismatch after round trip")
	}
	if !reflect.DeepEqual(gt.Layout.Rects(), wt.Layout.Rects()) {
		t.Fatal("reconstructed layout differs from original")
	}
	if !reflect.DeepEqual(gt.colors(), wt.colors()) {
		t.Fatal("reconstructed coloring differs from original")
	}
}

func encodeRecord(t testing.TB, rec *SnapshotRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveSnapshot(&buf, rec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name               string
		edgeBased, colored bool
	}{
		{"vertex", false, false},
		{"vertex-colored", false, true},
		{"edge", true, false},
		{"edge-colored", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := randomSnapshotRecord(t, 42, 60, 240, tc.edgeBased, tc.colored)
			got, err := LoadSnapshot(bytes.NewReader(encodeRecord(t, rec)))
			if err != nil {
				t.Fatal(err)
			}
			assertRecordsDeepEqual(t, rec, got)
		})
	}
}

// TestSnapshotMetaOnlyDecode: DecodeSnapshotMeta must read the
// identity block without needing (or validating) the heavy sections.
// A prefix that ends after the meta section is enough; one that cuts
// the meta section is an error.
func TestSnapshotMetaOnlyDecode(t *testing.T) {
	rec := randomSnapshotRecord(t, 3, 30, 90, false, true)
	data := encodeRecord(t, rec)
	off, length := findSection(t, data, "meta")
	for _, img := range [][]byte{data, data[:off+length]} {
		meta, err := DecodeSnapshotMeta(img)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Dataset != rec.Dataset || meta.Measure != rec.Measure ||
			meta.Color != rec.Color || meta.Bins != rec.Bins ||
			meta.Seq != rec.Seq || meta.Edge != rec.Edge {
			t.Fatalf("meta decode mismatch: %+v", meta)
		}
	}
	if _, err := DecodeSnapshotMeta(data[:off+length-1]); err == nil {
		t.Fatal("torn meta section accepted")
	}
}

// TestSnapshotCodecRejectsCorruptInput: truncations and corruptions
// must return errors — never panic, never a bundle that lies about
// its own consistency.
func TestSnapshotCodecRejectsCorruptInput(t *testing.T) {
	rec := randomSnapshotRecord(t, 9, 40, 160, false, true)
	full := encodeRecord(t, rec)

	// Every truncation point: error, no panic. (The container ends at
	// EOF, so any cut lands mid-header or mid-section.)
	for cut := 0; cut < len(full); cut += 7 {
		if _, err := LoadSnapshot(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes accepted", cut)
		}
	}
	if _, err := LoadSnapshot(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}

	// A snapshot whose field length disagrees with its graph must be
	// rejected by the cross-section consistency checks.
	bad := *rec
	bad.Values = bad.Values[:len(bad.Values)-1]
	var buf bytes.Buffer
	if err := SaveSnapshot(&buf, &bad); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("height/graph length mismatch accepted")
	}
}

// FuzzSnapshotCodec: for random graphs and fields, decode(encode(s))
// must be deep-equal to s, and on arbitrary corruption or truncation
// of the encoded bytes DecodeSnapshotImage must never panic and must
// accept exactly the inputs the ReaderAt walker oracle accepts,
// decoding records that re-encode byte-identically to the oracle's.
// On every input it accepts, DecodeSnapshotImageTrusted must decode a
// deep-equal record. Each corruption is also tried with its checksums
// resealed, so it reaches the structural checks behind them. Both
// decoders see the image misaligned (the +1 offset defeats any natural
// alignment), so the copy fallbacks are exercised too.
func FuzzSnapshotCodec(f *testing.F) {
	f.Add(int64(1), uint8(20), uint16(60), false, false, uint16(0), byte(0))
	f.Add(int64(2), uint8(50), uint16(300), true, false, uint16(9), byte(7))
	f.Add(int64(3), uint8(5), uint16(4), false, true, uint16(100), byte(255))
	f.Add(int64(4), uint8(80), uint16(500), true, true, uint16(65535), byte(1))
	// Corruptions landing in the tree, spectrum and sums sections, which
	// the version 3 container ends with.
	f.Add(int64(5), uint8(10), uint16(30), false, false, uint16(2000), byte(1))
	f.Add(int64(6), uint8(30), uint16(90), true, true, uint16(7800), byte(0x80))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, attempts uint16, edgeBased, colored bool, corruptAt uint16, corruptXor byte) {
		rec := randomSnapshotRecord(t, seed, int(n)+2, int(attempts)%1000, edgeBased, colored)
		data := encodeRecord(t, rec)

		got, err := LoadSnapshot(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		assertRecordsDeepEqual(t, rec, got)
		requireSameAsOracle(t, data)

		if corruptXor != 0 && len(data) > 0 {
			evil := append([]byte(nil), data...)
			evil[int(corruptAt)%len(evil)] ^= corruptXor
			requireSameAsOracle(t, evil)
			requireSameAsOracle(t, resealed(evil))
			// Truncation at the corruption point, too.
			requireSameAsOracle(t, evil[:int(corruptAt)%len(evil)])
		}
	})
}

// requireSameAsOracle decodes data with DecodeSnapshotImage from a
// misaligned copy and with loadSnapshotFileOracle through a misaligned
// mapper, and fails unless both reject it or both accept it with
// byte-identical re-encodings; when they accept it, the trusted
// decoder must decode a deep-equal record from the same image.
func requireSameAsOracle(t *testing.T, data []byte) {
	t.Helper()
	img := misaligned(data)
	got, err := DecodeSnapshotImage(img, nil)
	want, release, wantErr := loadSnapshotFileOracle(bytes.NewReader(data), int64(len(data)), misalignOver(data), nil)
	defer release()
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("DecodeSnapshotImage err %v; oracle err %v", err, wantErr)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(encodeRecord(t, got), encodeRecord(t, want)) {
		t.Fatal("DecodeSnapshotImage and the oracle decode different records")
	}
	trusted, err := DecodeSnapshotImageTrusted(img, nil)
	if err != nil {
		t.Fatalf("trusted decode of bytes the verified decoder accepts: %v", err)
	}
	if !reflect.DeepEqual(trusted, got) {
		t.Fatal("trusted and verified decoders decode different records")
	}
}

// misaligned returns a copy of data whose first byte sits one past an
// 8-aligned address.
func misaligned(data []byte) []byte {
	buf := make([]byte, len(data)+1)
	copy(buf[1:], data)
	return buf[1:]
}

// FuzzLoadSnapshotAdoption: decoding with have set to the graph the
// snapshot was saved from must agree with decoding without it, on any
// mutated or truncated bytes: both fail, or both succeed with
// byte-identical arenas, fields and trees. The held graph is adopted
// exactly when the csr2 payload repeats its arena, so a corrupt arena
// can never skip the verification scan. Each mutation is also tried
// with its checksums resealed.
func FuzzLoadSnapshotAdoption(f *testing.F) {
	f.Add(int64(1), uint8(20), uint16(60), false, false, uint16(0), byte(0), false)
	f.Add(int64(2), uint8(50), uint16(300), true, false, uint16(200), byte(7), false)
	f.Add(int64(3), uint8(5), uint16(4), false, true, uint16(100), byte(255), true)
	f.Add(int64(4), uint8(80), uint16(500), true, true, uint16(65535), byte(1), false)
	f.Fuzz(func(t *testing.T, seed int64, n uint8, attempts uint16, edgeBased, colored bool, at uint16, xor byte, truncate bool) {
		rec := randomSnapshotRecord(t, seed, int(n)+2, int(attempts)%1000, edgeBased, colored)
		data := encodeRecord(t, rec)
		i := int(at) % len(data)
		data[i] ^= xor
		if truncate {
			data = data[:i]
		}
		for _, data := range [][]byte{data, resealed(data)} {
			adopted, errAdopt := DecodeSnapshotImage(data, rec.Graph)
			verified, errVerify := DecodeSnapshotImage(data, nil)
			if (errAdopt == nil) != (errVerify == nil) {
				t.Fatalf("decode with a held graph: %v; without: %v", errAdopt, errVerify)
			}
			if errAdopt != nil {
				continue
			}
			if !bytes.Equal(encodeRecord(t, adopted), encodeRecord(t, verified)) {
				t.Fatal("decodes with and without a held graph differ")
			}
			same := bytes.Equal(graph.ArenaWireBytes(adopted.Graph), graph.ArenaWireBytes(rec.Graph))
			if same != (adopted.Graph == rec.Graph) {
				t.Fatalf("held graph adopted = %v for a csr2 payload identical to it = %v", adopted.Graph == rec.Graph, same)
			}
		}
	})
}

// TestSnapshotRejectsOtherVersions: version 3 is the only container
// version; every decoder refuses an otherwise valid container carrying
// any other version byte.
func TestSnapshotRejectsOtherVersions(t *testing.T) {
	data := encodeRecord(t, randomSnapshotRecord(t, 21, 50, 200, false, true))
	for _, v := range []byte{0, 1, 2, 4} {
		evil := append([]byte(nil), data...)
		evil[4] = v
		if _, err := LoadSnapshot(bytes.NewReader(evil)); err == nil {
			t.Errorf("LoadSnapshot accepted version %d", v)
		}
		if _, err := DecodeSnapshotImage(evil, nil); err == nil {
			t.Errorf("DecodeSnapshotImage accepted version %d", v)
		}
		if _, err := DecodeSnapshotImageTrusted(evil, nil); err == nil {
			t.Errorf("DecodeSnapshotImageTrusted accepted version %d", v)
		}
	}
}

// TestSnapshotBytesGolden pins the SFSN container bytes of fixed
// records, so stored and peer-held snapshots keep decoding and
// answering identically.
func TestSnapshotBytesGolden(t *testing.T) {
	for _, tc := range []struct {
		name               string
		edgeBased, colored bool
		want               string
	}{
		{"vertex", false, false, "b913e8e812d832890c9672c8f115f1d3b8359e9d15364444b132741efdc7c6a9"},
		{"vertex-colored", false, true, "916186dbcd575f68cd42486e40143a8643ba251c3f927e087ed9cdb895f13d0f"},
		{"edge", true, false, "8ba6104c5807b368627cdd65db65a083a578a682fffcdf611cf45f1712d46056"},
		{"edge-colored", true, true, "4a29ced0d9ce1a33225855cd10cf295cf924761d25b67bec6724ae38fea3f2c9"},
	} {
		sum := sha256.Sum256(encodeRecord(t, randomSnapshotRecord(t, 7, 40, 160, tc.edgeBased, tc.colored)))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: SFSN sha256 %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestSnapshotCsr2PayloadAligned: whatever the (variable-length) meta
// section holds, the pad0 sections must land every array payload on an
// 8-byte file offset — the invariant that makes a page-aligned mapping
// of the file viewable in place.
func TestSnapshotCsr2PayloadAligned(t *testing.T) {
	for pad := 0; pad < 8; pad++ {
		rec := randomSnapshotRecord(t, int64(pad), 20, 60, pad%2 == 1, true)
		rec.Dataset = "align-test"[:pad]
		data := encodeRecord(t, rec)
		for _, tag := range []string{"csr2", "hght", "colr", "tree", "spec"} {
			if off, _ := findSection(t, data, tag); off%8 != 0 {
				t.Fatalf("dataset length %d: %s payload at offset %d, want multiple of 8", pad, tag, off)
			}
		}
		off, length := findSection(t, data, "csr2")
		if _, err := graph.GraphFromArena(data[off : off+length]); err != nil {
			t.Fatalf("csr2 payload does not decode in place: %v", err)
		}
	}
}

// findSection walks the container framing and returns the payload
// offset and length of the first section with the given tag.
func findSection(t testing.TB, data []byte, tag string) (off, length int64) {
	t.Helper()
	pos := int64(5)
	for pos < int64(len(data)) {
		got := string(data[pos : pos+4])
		n := int64(uint64(data[pos+4]) | uint64(data[pos+5])<<8 | uint64(data[pos+6])<<16 | uint64(data[pos+7])<<24 |
			uint64(data[pos+8])<<32 | uint64(data[pos+9])<<40 | uint64(data[pos+10])<<48 | uint64(data[pos+11])<<56)
		if got == tag {
			return pos + 12, n
		}
		pos += 12 + n
	}
	t.Fatalf("section %q not found", tag)
	return 0, 0
}

// alignedCopy returns a copy of data at an 8-aligned address.
func alignedCopy(data []byte) []byte {
	words := make([]uint64, (len(data)+7)/8)
	img := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(data))
	copy(img, data)
	return img
}

// TestDecodeSnapshotImage: a record decoded from an 8-aligned image
// views the image — the graph its csr2 range, the fields, the tree's
// arrays and index and the spectrum their sections — under both
// decoders, a held graph with identical bytes is adopted, and a second
// csr2 section is refused.
func TestDecodeSnapshotImage(t *testing.T) {
	rec := randomSnapshotRecord(t, 33, 80, 320, true, true)
	data := encodeRecord(t, rec)
	img := alignedCopy(data)
	inSection := func(p unsafe.Pointer, tag string) bool {
		off, length := findSection(t, img, tag)
		base := uintptr(unsafe.Pointer(&img[off]))
		return uintptr(p) >= base && uintptr(p) < base+uintptr(length)
	}
	for name, decode := range map[string]func([]byte, *Graph) (*SnapshotRecord, error){
		"verified": DecodeSnapshotImage,
		"trusted":  DecodeSnapshotImageTrusted,
	} {
		got, err := decode(img, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertRecordsDeepEqual(t, rec, got)
		if !reflect.DeepEqual(got.Spectrum, NewSpectrum(rec.Terrain)) {
			t.Fatalf("%s: decoded spectrum differs from the tree's", name)
		}
		tree := got.Terrain.Tree
		for what, view := range map[string]struct {
			p   unsafe.Pointer
			tag string
		}{
			"graph":        {unsafe.Pointer(&graph.ArenaWireBytes(got.Graph)[0]), "csr2"},
			"height":       {unsafe.Pointer(&got.Values[0]), "hght"},
			"color":        {unsafe.Pointer(&got.ColorValues[0]), "colr"},
			"tree scalars": {unsafe.Pointer(&tree.Scalar[0]), "tree"},
			"tree parents": {unsafe.Pointer(&tree.Parent[0]), "tree"},
			"tree members": {unsafe.Pointer(&tree.Members(0)[0]), "tree"},
			"levels":       {unsafe.Pointer(&got.Spectrum.Levels[0]), "spec"},
			"components":   {unsafe.Pointer(&got.Spectrum.Components[0]), "spec"},
			"survivors":    {unsafe.Pointer(&got.Spectrum.Items[0]), "spec"},
		} {
			// A 32-bit int cannot view the spectrum's i64 counts.
			if view.tag == "spec" && what != "levels" && strconv.IntSize != 64 {
				continue
			}
			if !inSection(view.p, view.tag) {
				t.Errorf("%s: decoded %s does not view the image's %s section", name, what, view.tag)
			}
		}

		// A held graph with the same bytes is adopted, not re-decoded.
		adopted, err := decode(img, got.Graph)
		if err != nil {
			t.Fatal(err)
		}
		if adopted.Graph != got.Graph {
			t.Fatalf("%s: held graph with identical bytes was not adopted", name)
		}
	}

	// A held graph skips the csr2 checksum only when the sums record
	// its own: a csr2 sum one bit off is refused, held graph or not.
	sumsAt, _ := findSection(t, data, "sums")
	badSum := bytes.Clone(data)
	badSum[int(sumsAt)+bytes.Index(data[sumsAt:], []byte("csr2"))+wire.TagLen] ^= 1
	for _, have := range []*Graph{nil, rec.Graph} {
		if _, err := DecodeSnapshotImageTrusted(badSum, have); err == nil {
			t.Fatalf("held graph %v: csr2 checksum one bit off accepted", have != nil)
		}
	}

	// Only one csr2 section can become the record's graph: a second one,
	// listed in the sums like the first, is refused.
	off, length := findSection(t, data, "csr2")
	sumsOff, sumsLen := findSection(t, data, "sums")
	twice := append([]byte(nil), data[:sumsOff-sectionHeaderLen]...)
	twice = append(twice, data[off-sectionHeaderLen:off+length]...)
	sums := data[sumsOff : sumsOff+sumsLen]
	entry := bytes.Index(sums, []byte("csr2"))
	sums = append(append([]byte(nil), sums...), sums[entry:entry+sumLen]...)
	twice = append(twice, "sums"...)
	twice = binary.LittleEndian.AppendUint64(twice, uint64(len(sums)))
	twice = append(twice, sums...)
	for _, have := range []*Graph{nil, rec.Graph} {
		if _, err := DecodeSnapshotImage(twice, have); err == nil || !strings.Contains(err.Error(), "two csr2") {
			t.Fatalf("container with two csr2 sections: %v", err)
		}
		if _, err := DecodeSnapshotImageTrusted(twice, have); err == nil || !strings.Contains(err.Error(), "two csr2") {
			t.Fatalf("trusted decode of a container with two csr2 sections: %v", err)
		}
	}
}

// TestDecodeSnapshotImageAdoptAllocs gates an adopting verified decode
// at one allocation count for graphs of very different sizes: nothing
// is staged per section, a held graph costs no copy, and the arrays
// are views; what remains is the record, the tree, the index and
// spectrum it rebuilds to check the stored ones, and the terrain.
func TestDecodeSnapshotImageAdoptAllocs(t *testing.T) {
	budget := float64(21 + spectrumCopies)
	var counts []float64
	for _, n := range []int{200, 5000} {
		rec := randomSnapshotRecord(t, 11, n, 4*n, false, true)
		data := encodeRecord(t, rec)
		counts = append(counts, testing.AllocsPerRun(5, func() {
			got, err := DecodeSnapshotImage(data, rec.Graph)
			if err != nil || got.Graph != rec.Graph {
				t.Fatalf("adopting decode: graph adopted %v, err %v", got != nil && got.Graph == rec.Graph, err)
			}
		}))
	}
	if counts[0] != counts[1] || counts[0] > budget {
		t.Errorf("adopting DecodeSnapshotImage allocs %v, want equal and <= %v", counts, budget)
	}
}

// spectrumCopies counts the spectrum's count curves, which a 32-bit
// int cannot view in place and decodes into copies.
var spectrumCopies = map[bool]int{true: 0, false: 2}[strconv.IntSize == 64]

// TestDecodeStoredSnapshotAllocs gates the trusted decode, the disk
// store's cold hit, at exactly the allocations it cannot avoid: the
// record, two meta strings, the tree, the spectrum, the terrain and
// its layout; a colored record adds the recoloring's node intensities
// and colors, and a graph that is not adopted its Graph header.
// Nothing scales with the snapshot.
func TestDecodeStoredSnapshotAllocs(t *testing.T) {
	for _, tc := range []struct {
		colored, adopt bool
		want           float64
	}{
		{false, true, 7},
		{true, true, 11},
		{false, false, 8},
	} {
		for _, n := range []int{200, 5000} {
			rec := randomSnapshotRecord(t, 11, n, 4*n, false, tc.colored)
			data := encodeRecord(t, rec)
			have := rec.Graph
			if !tc.adopt {
				have = nil
			}
			got := testing.AllocsPerRun(5, func() {
				if _, err := DecodeSnapshotImageTrusted(data, have); err != nil {
					t.Fatal(err)
				}
			})
			if got != tc.want+float64(spectrumCopies) {
				t.Errorf("n=%d colored=%v adopt=%v: trusted decode allocs %v, want %v", n, tc.colored, tc.adopt, got, tc.want)
			}
		}
	}
}

// resealed returns a copy of data whose sums entries are recomputed
// over its sections as they stand, so a deliberate corruption reaches
// the checks behind the checksums. Bytes that do not frame as a
// container ending in a sums section come back unchanged.
func resealed(data []byte) []byte {
	out := bytes.Clone(data)
	s, err := wire.Walk(out, snapshotMagic, 255)
	if err != nil {
		return out
	}
	probe := s
	var sums []byte
	for probe.Next() {
		sums = nil
		if probe.Tag() == "sums" {
			sums = probe.Payload()
		}
	}
	for s.Next() && s.Tag() != "sums" && len(sums) >= sumLen {
		if s.Tag() != "pad0" {
			copy(sums, s.Tag())
			binary.LittleEndian.PutUint32(sums[wire.TagLen:], crc32.Checksum(s.Payload(), crc32.MakeTable(crc32.Castagnoli)))
			sums = sums[sumLen:]
		}
	}
	return out
}

// TestSnapshotRejectsNaN: a NaN in the height field, the color field
// or a tree scalar fails the verified decode, as it fails the field
// constructors, even behind valid checksums; the oracle walker agrees.
// Without resealed checksums every decoder rejects the bytes.
func TestSnapshotRejectsNaN(t *testing.T) {
	rec := randomSnapshotRecord(t, 5, 40, 160, false, true)
	data := encodeRecord(t, rec)
	nan := math.Float64bits(math.NaN())
	for tag, at := range map[string]int64{
		"hght": 0, // the first value
		"colr": 8, // the second value
		// The root's scalar, past the SFST header.
		"tree": 16,
	} {
		evil := append([]byte(nil), data...)
		off, _ := findSection(t, evil, tag)
		binary.LittleEndian.PutUint64(evil[off+at:], nan)
		if _, err := DecodeSnapshotImageTrusted(evil, nil); err == nil {
			t.Errorf("%s: NaN behind a stale checksum accepted", tag)
		}
		evil = resealed(evil)
		if _, err := DecodeSnapshotImage(evil, nil); err == nil {
			t.Errorf("%s: NaN accepted", tag)
		}
		if _, rel, err := loadSnapshotFileOracle(bytes.NewReader(evil), int64(len(evil)), nil, nil); err == nil {
			rel()
			t.Errorf("%s: oracle accepted NaN", tag)
		}
	}
}

// TestSnapshotRejectsTamperedDerivedSections: a stored index or
// spectrum one bit off the one the tree builds is rejected by the
// verified decoder and the oracle even behind valid checksums, and the
// trusted decoder, which views them unchecked, still refuses the same
// bytes when their checksums are stale.
func TestSnapshotRejectsTamperedDerivedSections(t *testing.T) {
	rec := randomSnapshotRecord(t, 6, 40, 160, true, false)
	data := encodeRecord(t, rec)
	tree := rec.Terrain.Tree
	levels := int64(len(NewSpectrum(rec.Terrain).Levels))
	for name, at := range map[string]struct {
		tag string
		off int64
	}{
		"flat item":       {"tree", 16 + 12*int64(tree.Len()) + 4*int64(tree.NumItems())},
		"subtree size":    {"tree", 16 + 16*int64(tree.Len()) + 8*int64(tree.NumItems())},
		"level":           {"spec", 0},
		"component count": {"spec", 8 * levels},
		"survivor count":  {"spec", 24*levels - 8},
	} {
		evil := append([]byte(nil), data...)
		off, _ := findSection(t, evil, at.tag)
		evil[off+at.off] ^= 1
		if _, err := DecodeSnapshotImageTrusted(evil, nil); err == nil {
			t.Errorf("%s: tampered bytes behind a stale checksum accepted", name)
		}
		evil = resealed(evil)
		if _, err := DecodeSnapshotImage(evil, nil); err == nil {
			t.Errorf("%s: tampered bytes accepted", name)
		}
		if _, rel, err := loadSnapshotFileOracle(bytes.NewReader(evil), int64(len(evil)), nil, nil); err == nil {
			rel()
			t.Errorf("%s: oracle accepted tampered bytes", name)
		}
	}
}

// misalignOver returns a graphSectionMapper over data that serves the
// requested range through a deliberately misaligned buffer, forcing
// the arena decoder's copy fallback under fuzzing.
func misalignOver(data []byte) graphSectionMapper {
	return func(off, length int64) ([]byte, func(), error) {
		if off < 0 || length < 0 || off+length > int64(len(data)) {
			return nil, nil, io.ErrUnexpectedEOF
		}
		return misaligned(data[off : off+length]), func() {}, nil
	}
}
