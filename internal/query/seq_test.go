package query

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"math"
	"testing"
)

// snapshotSeqFormula is the definition snapshotSeq must keep: FNV-1a
// over the key's ShardString and the generation's 8 little-endian
// bytes, with zero mapped to one. Persisted and forwarded snapshots
// carry these values.
func snapshotSeqFormula(key Key, gen uint64) uint64 {
	h := fnv.New64a()
	io.WriteString(h, key.ShardString())
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], gen)
	h.Write(b[:])
	if seq := h.Sum64(); seq != 0 {
		return seq
	}
	return 1
}

func TestSnapshotSeqMatchesFormula(t *testing.T) {
	keys := []Key{
		{},
		{Dataset: "tiny", Measure: "kcore"},
		{Dataset: "GrQc", Measure: "ktruss", Color: "degree", Bins: 16},
		{Dataset: "GrQc", Measure: "clustering", Bins: -3},
		{Dataset: "a\x00b", Measure: "\x00", Color: "ü", Bins: math.MaxInt},
		{Dataset: "x", Bins: math.MinInt},
	}
	gens := []uint64{0, 1, 255, 256, 1 << 40, math.MaxUint64}
	for _, k := range keys {
		for _, gen := range gens {
			if got, want := snapshotSeq(k, gen), snapshotSeqFormula(k, gen); got != want {
				t.Errorf("snapshotSeq(%q, %d) = %#x, want %#x", k.ShardString(), gen, got, want)
			}
		}
	}
}

func TestSnapshotSeqAllocationFree(t *testing.T) {
	key := Key{Dataset: "GrQc", Measure: "ktruss", Color: "degree", Bins: 16}
	if a := testing.AllocsPerRun(100, func() { snapshotSeq(key, 7) }); a != 0 {
		t.Fatalf("snapshotSeq allocates %v objects, want 0", a)
	}
}

// warmHitAllocs is the measured allocation count of a warm
// Engine.Snapshot hit.
const warmHitAllocs = 1

func TestWarmSnapshotHitAllocations(t *testing.T) {
	e := testEngine(t, Options{})
	key := Key{Dataset: "tiny", Measure: "kcore", Color: "degree"}
	if _, err := e.Snapshot(key); err != nil {
		t.Fatal(err)
	}
	a := testing.AllocsPerRun(100, func() {
		if _, err := e.Snapshot(key); err != nil {
			t.Fatal(err)
		}
	})
	if a > warmHitAllocs {
		t.Fatalf("warm Engine.Snapshot hit allocates %v objects, want at most %d", a, warmHitAllocs)
	}
}
