package scalarfield

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/graph"
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
// Both decoders see the csr2 payload misaligned (the +1 offset
// defeats any natural alignment), so the arena copy fallback is
// exercised too.
func FuzzSnapshotCodec(f *testing.F) {
	f.Add(int64(1), uint8(20), uint16(60), false, false, uint16(0), byte(0))
	f.Add(int64(2), uint8(50), uint16(300), true, false, uint16(9), byte(7))
	f.Add(int64(3), uint8(5), uint16(4), false, true, uint16(100), byte(255))
	f.Add(int64(4), uint8(80), uint16(500), true, true, uint16(65535), byte(1))
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
			// Truncation at the corruption point, too.
			requireSameAsOracle(t, evil[:int(corruptAt)%len(evil)])
		}
	})
}

// requireSameAsOracle decodes data with DecodeSnapshotImage from a
// misaligned copy and with loadSnapshotFileOracle through a misaligned
// mapper, and fails unless both reject it or both accept it with
// byte-identical re-encodings.
func requireSameAsOracle(t *testing.T, data []byte) {
	t.Helper()
	img := misaligned(data)
	got, err := DecodeSnapshotImage(img, nil)
	want, release, wantErr := loadSnapshotFileOracle(bytes.NewReader(data), int64(len(data)), misalignOver(data), nil)
	defer release()
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("DecodeSnapshotImage err %v; oracle err %v", err, wantErr)
	}
	if err == nil && !bytes.Equal(encodeRecord(t, got), encodeRecord(t, want)) {
		t.Fatal("DecodeSnapshotImage and the oracle decode different records")
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
// can never skip the verification scan.
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
		adopted, errAdopt := DecodeSnapshotImage(data, rec.Graph)
		verified, errVerify := DecodeSnapshotImage(data, nil)
		if (errAdopt == nil) != (errVerify == nil) {
			t.Fatalf("decode with a held graph: %v; without: %v", errAdopt, errVerify)
		}
		if errAdopt != nil {
			return
		}
		if !bytes.Equal(encodeRecord(t, adopted), encodeRecord(t, verified)) {
			t.Fatal("decodes with and without a held graph differ")
		}
		same := bytes.Equal(graph.ArenaWireBytes(adopted.Graph), graph.ArenaWireBytes(rec.Graph))
		if same != (adopted.Graph == rec.Graph) {
			t.Fatalf("held graph adopted = %v for a csr2 payload identical to it = %v", adopted.Graph == rec.Graph, same)
		}
	})
}

// TestSnapshotRejectsOtherVersions: version 2 is the only container
// version; both decoders refuse an otherwise valid container carrying
// any other version byte.
func TestSnapshotRejectsOtherVersions(t *testing.T) {
	data := encodeRecord(t, randomSnapshotRecord(t, 21, 50, 200, false, true))
	for _, v := range []byte{0, 1, 3} {
		evil := append([]byte(nil), data...)
		evil[4] = v
		if _, err := LoadSnapshot(bytes.NewReader(evil)); err == nil {
			t.Errorf("LoadSnapshot accepted version %d", v)
		}
		if _, err := DecodeSnapshotImage(evil, nil); err == nil {
			t.Errorf("DecodeSnapshotImage accepted version %d", v)
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
		{"vertex", false, false, "f35e19cac3f308c22ef4ef3bce7ba31ea4ac1c48269241178e0bb7f411f683db"},
		{"vertex-colored", false, true, "215f6867c2a1f02ee0601c24afc20fecbb31fee89f2f282b282fd1ce232a4d99"},
		{"edge", true, false, "1e7db652852ce1d0e8b1f03c511b59088bee5b67dc5fd070066c59db860c3598"},
		{"edge-colored", true, true, "a041d8ec081989e39d6c8bbdaf49ee1a260b131a82990d572f4ea7faad0507d0"},
	} {
		sum := sha256.Sum256(encodeRecord(t, randomSnapshotRecord(t, 7, 40, 160, tc.edgeBased, tc.colored)))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: SFSN sha256 %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestSnapshotCsr2PayloadAligned: whatever the (variable-length) meta
// section holds, the pad0 section must land the csr2 payload on an
// 8-byte file offset — the invariant that makes a page-aligned mapping
// of the section an aliasable arena.
func TestSnapshotCsr2PayloadAligned(t *testing.T) {
	for pad := 0; pad < 8; pad++ {
		rec := randomSnapshotRecord(t, int64(pad), 20, 60, false, false)
		rec.Dataset = "align-test"[:pad]
		data := encodeRecord(t, rec)
		off, length := findSection(t, data, "csr2")
		if off%8 != 0 {
			t.Fatalf("dataset length %d: csr2 payload at offset %d, want multiple of 8", pad, off)
		}
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

// TestDecodeSnapshotImage: the graph of a record decoded from an
// 8-aligned image aliases the image's csr2 range, the fields and the
// tree do not alias the image, a held graph with identical bytes is
// adopted, and a second csr2 section is refused.
func TestDecodeSnapshotImage(t *testing.T) {
	rec := randomSnapshotRecord(t, 33, 80, 320, true, true)
	data := encodeRecord(t, rec)
	words := make([]uint64, (len(data)+7)/8)
	img := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(data))
	copy(img, data)

	got, err := DecodeSnapshotImage(img, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertRecordsDeepEqual(t, rec, got)
	off, length := findSection(t, img, "csr2")
	inImage := func(p unsafe.Pointer) bool {
		base := uintptr(unsafe.Pointer(&img[0]))
		return uintptr(p) >= base && uintptr(p) < base+uintptr(len(img))
	}
	arena := graph.ArenaWireBytes(got.Graph)
	if len(arena) != int(length) || &arena[0] != &img[off] {
		t.Fatal("decoded graph does not alias the image's csr2 range")
	}
	if inImage(unsafe.Pointer(&got.Values[0])) || inImage(unsafe.Pointer(&got.ColorValues[0])) ||
		inImage(unsafe.Pointer(&got.Terrain.Tree.Parent[0])) || inImage(unsafe.Pointer(&got.Terrain.Tree.Scalar[0])) {
		t.Fatal("decoded fields or tree alias the image")
	}

	// A held graph with the same bytes is adopted, not re-decoded.
	adopted, err := DecodeSnapshotImage(img, got.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if adopted.Graph != got.Graph {
		t.Fatal("held graph with identical bytes was not adopted")
	}

	// Only one csr2 section can become the record's graph.
	twice := append(append([]byte(nil), data...), data[off-sectionHeaderLen:off+length]...)
	if _, err := DecodeSnapshotImage(twice, nil); err == nil {
		t.Fatal("container with two csr2 sections accepted")
	}
	if _, err := DecodeSnapshotImage(twice, got.Graph); err == nil {
		t.Fatal("container with two csr2 sections accepted beside a held graph")
	}
}

// TestDecodeSnapshotImageAdoptAllocs gates an adopting decode, the
// disk store's common cold hit, at one allocation count for graphs of
// very different sizes: nothing is staged per section, and a held
// graph costs no copy. The ReaderAt walker this decoder replaced made
// 44 allocations on the same input.
func TestDecodeSnapshotImageAdoptAllocs(t *testing.T) {
	const budget = 16
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
		t.Errorf("adopting DecodeSnapshotImage allocs %v, want equal and <= %d", counts, budget)
	}
}

// TestSnapshotRejectsNaN: a NaN in the height field, the color field
// or a tree scalar fails the decode, as it fails the field
// constructors; the oracle walker agrees.
func TestSnapshotRejectsNaN(t *testing.T) {
	rec := randomSnapshotRecord(t, 5, 40, 160, false, true)
	data := encodeRecord(t, rec)
	nan := math.Float64bits(math.NaN())
	for tag, at := range map[string]int64{
		"hght": 8,  // the first value, past the u64 count
		"colr": 16, // the second value
		// The root's scalar, past the SFST header and the parents.
		"tree": 13 + 4*int64(rec.Terrain.Tree.Len()),
	} {
		evil := append([]byte(nil), data...)
		off, _ := findSection(t, evil, tag)
		binary.LittleEndian.PutUint64(evil[off+at:], nan)
		if _, err := DecodeSnapshotImage(evil, nil); err == nil {
			t.Errorf("%s: NaN accepted", tag)
		}
		if _, rel, err := loadSnapshotFileOracle(bytes.NewReader(evil), int64(len(evil)), nil, nil); err == nil {
			rel()
			t.Errorf("%s: oracle accepted NaN", tag)
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
