package query

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"repro/internal/wire"
)

// snapshotSectionRanges returns the payload range [start, end) of each
// section of a stored snapshot, by tag; pad0 sections are left out.
func snapshotSectionRanges(t testing.TB, data []byte) map[string][2]int {
	t.Helper()
	s, err := wire.Walk(data, "SFSN", 3)
	if err != nil {
		t.Fatal(err)
	}
	ranges := map[string][2]int{}
	for s.Next() {
		if s.Tag() == "pad0" {
			continue
		}
		p := s.Payload()
		start := int(uintptr(unsafe.Pointer(unsafe.SliceData(p))) - uintptr(unsafe.Pointer(&data[0])))
		ranges[s.Tag()] = [2]int{start, start + len(p)}
	}
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	return ranges
}

// resealSnapshot returns a copy of a stored snapshot whose sums
// section is recomputed over its sections as they stand, so a
// deliberate corruption reaches the checks behind the checksums.
func resealSnapshot(t testing.TB, data []byte) []byte {
	t.Helper()
	out := bytes.Clone(data)
	s, err := wire.Walk(out, "SFSN", 3)
	if err != nil {
		t.Fatal(err)
	}
	probe := s
	var sums []byte
	for probe.Next() {
		if probe.Tag() == "sums" {
			sums = probe.Payload()
		}
	}
	table := crc32.MakeTable(crc32.Castagnoli)
	for s.Next() && s.Tag() != "sums" {
		if s.Tag() != "pad0" {
			binary.LittleEndian.PutUint32(sums[4:], crc32.Checksum(s.Payload(), table))
			sums = sums[8:]
		}
	}
	return out
}

// TestDiskStoreQuarantinesDamagedFiles: a stored file with one byte
// flipped in any checksummed section, or in the sums section itself,
// or cut short anywhere, is a miss on its first cold hit, heap and
// mmap alike: the file is quarantined, the key is re-analyzed exactly
// once, and the answers are byte-identical to the original's. The
// checksums are all that stands between such a file and the trusted
// decode, which checks nothing else that grows with the data.
func TestDiskStoreQuarantinesDamagedFiles(t *testing.T) {
	key := Key{Dataset: "tiny", Measure: "kcore", Color: "degree"}
	e := testEngine(t, Options{})
	snap, err := e.Snapshot(key)
	if err != nil {
		t.Fatal(err)
	}
	want := resolveJSON(t, e, snap)
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	stored := buf.Bytes()
	ranges := snapshotSectionRanges(t, stored)

	type damage struct {
		name string
		data []byte
	}
	var cases []damage
	for _, tag := range []string{"meta", "layo", "csr2", "hght", "colr", "tree", "spec", "sums"} {
		r, ok := ranges[tag]
		if !ok {
			t.Fatalf("stored snapshot has no %s section", tag)
		}
		for _, at := range []int{r[0], (r[0] + r[1]) / 2, r[1] - 1} {
			evil := bytes.Clone(stored)
			evil[at] ^= 0x10
			cases = append(cases, damage{tag + " flip", evil})
		}
	}
	for _, cut := range []int{3, ranges["csr2"][0] + 1, ranges["tree"][1], ranges["sums"][0] + 4, len(stored) - 1} {
		cases = append(cases, damage{"truncated", stored[:cut]})
	}

	for _, mmap := range []bool{false, true} {
		for _, tc := range cases {
			dir := t.TempDir()
			path := filepath.Join(dir, SnapshotFileName(key))
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			store, err := NewDiskStoreOptions(dir, DiskStoreOptions{MmapGraphs: mmap})
			if err != nil {
				t.Fatal(err)
			}
			// A file whose meta section is damaged may not index under
			// key at all; it is then simply never served.
			indexed := store.Contains(key)
			e := NewEngine(Options{Store: store})
			e.RegisterDataset("tiny", testGraph())
			got, err := e.Snapshot(key)
			if err != nil {
				t.Fatal(err)
			}
			if n := e.AnalysisCount(); n != 1 {
				t.Fatalf("mmap=%v %s: %d analyses, want 1", mmap, tc.name, n)
			}
			if body := resolveJSON(t, e, got); !bytes.Equal(body, want) {
				t.Fatalf("mmap=%v %s: re-analysis answers differently:\nwant %s\ngot  %s", mmap, tc.name, want, body)
			}
			got.Release()
			if _, err := os.Stat(filepath.Join(dir, corruptPrefix+SnapshotFileName(key))); indexed && err != nil {
				t.Fatalf("mmap=%v %s: damaged file was not quarantined: %v", mmap, tc.name, err)
			}
			// The re-analysis replaced the file: a restart serves it.
			store, err = NewDiskStoreOptions(dir, DiskStoreOptions{MmapGraphs: mmap})
			if err != nil {
				t.Fatal(err)
			}
			again, ok := store.Get(key)
			if !ok {
				t.Fatalf("mmap=%v %s: re-analyzed snapshot not served after a restart", mmap, tc.name)
			}
			if body := resolveJSON(t, e, again); !bytes.Equal(body, want) {
				t.Fatalf("mmap=%v %s: re-stored snapshot answers differently", mmap, tc.name)
			}
			again.Release()
			store.DropOpen()
		}
	}
}
