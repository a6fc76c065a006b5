package graph

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func randomGraph(t *testing.T, rng *rand.Rand, n, attempts int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i < attempts; i++ {
		u, v := rng.Int31n(int32(n)), rng.Int31n(int32(n))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// arenaTestGraph builds a reproducible random graph for arena tests.
func arenaTestGraph(t *testing.T, n, attempts int, seed int64) *Graph {
	t.Helper()
	if n == 0 {
		return NewBuilder(0).Build()
	}
	return randomGraph(t, rand.New(rand.NewSource(seed)), n, attempts)
}

func assertSameGraph(t *testing.T, want, got *Graph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("size mismatch: got V=%d E=%d, want V=%d E=%d",
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for v := int32(0); v < int32(want.NumVertices()); v++ {
		if !intsEqual(got.Neighbors(v), want.Neighbors(v)) {
			t.Fatalf("neighbors of %d differ: got %v want %v", v, got.Neighbors(v), want.Neighbors(v))
		}
		if !intsEqual(got.IncidentEdges(v), want.IncidentEdges(v)) {
			t.Fatalf("incident edges of %d differ", v)
		}
	}
	for id := int32(0); id < int32(want.NumEdges()); id++ {
		if got.Edge(id) != want.Edge(id) {
			t.Fatalf("edge %d differs: got %v want %v", id, got.Edge(id), want.Edge(id))
		}
	}
}

func intsEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestArenaRoundTrip(t *testing.T) {
	for _, tc := range []struct{ n, attempts int }{
		{0, 0}, {1, 0}, {5, 0}, {8, 20}, {100, 400}, {500, 3000},
	} {
		g := arenaTestGraph(t, tc.n, tc.attempts, int64(tc.n*31+tc.attempts))
		wire := ArenaWireBytes(g)
		if len(wire) != ArenaBytes(g.NumVertices(), g.NumEdges()) {
			t.Fatalf("wire size %d, want %d", len(wire), ArenaBytes(g.NumVertices(), g.NumEdges()))
		}
		// Decode from a private copy so alias-vs-source confusion would
		// be caught by the deep comparison.
		cp := make([]byte, len(wire))
		copy(cp, wire)
		dec, err := GraphFromArena(cp)
		if err != nil {
			t.Fatalf("GraphFromArena(V=%d): %v", tc.n, err)
		}
		assertSameGraph(t, g, dec)
		if err := dec.Validate(); err != nil {
			t.Fatalf("decoded graph invalid: %v", err)
		}
		trusted, err := GraphFromArenaTrusted(cp)
		if err != nil {
			t.Fatalf("GraphFromArenaTrusted: %v", err)
		}
		assertSameGraph(t, g, trusted)
	}
}

func TestArenaDecodeAliases(t *testing.T) {
	g := arenaTestGraph(t, 50, 200, 7)
	buf := make([]byte, len(g.Arena()))
	copy(buf, g.Arena())
	dec, err := GraphFromArena(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !hostLittleEndian {
		t.Skip("big-endian host decodes through a converted copy")
	}
	// Zero-copy contract: the decoded graph's arena is the very buffer
	// passed in, not a rebuild.
	if &dec.Arena()[0] != &buf[0] {
		t.Fatal("decoded arena does not alias the input buffer")
	}
}

func TestArenaMisalignedInput(t *testing.T) {
	g := arenaTestGraph(t, 40, 150, 11)
	wire := ArenaWireBytes(g)
	// Slice the arena out of a larger buffer at an odd offset so the
	// base address cannot be 8-byte aligned.
	raw := make([]byte, len(wire)+1)
	copy(raw[1:], wire)
	dec, err := GraphFromArena(raw[1:])
	if err != nil {
		t.Fatalf("misaligned decode: %v", err)
	}
	assertSameGraph(t, g, dec)
}

func TestArenaHostileHeaders(t *testing.T) {
	g := arenaTestGraph(t, 30, 100, 13)
	good := ArenaWireBytes(g)
	mutate := func(f func(b []byte)) []byte {
		b := make([]byte, len(good))
		copy(b, good)
		f(b)
		return b
	}
	cases := map[string][]byte{
		"empty":          {},
		"short header":   good[:arenaHeaderSize-1],
		"truncated body": good[:len(good)-8],
		"bad magic":      mutate(func(b []byte) { b[0] = 'X' }),
		"bad version":    mutate(func(b []byte) { b[4] = 99 }),
		"huge vertices": mutate(func(b []byte) {
			b[8], b[9], b[10], b[11], b[12], b[13], b[14], b[15] = 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff
		}),
		"size mismatch":   mutate(func(b []byte) { b[24]++ }),
		"count mismatch":  mutate(func(b []byte) { b[8]++ }),
		"corrupt offsets": mutate(func(b []byte) { b[arenaHeaderSize+9] = 0x7f }),
		"corrupt adj":     mutate(func(b []byte) { b[arenaHeaderSize+8*(g.NumVertices()+1)+2] = 0xff }),
	}
	for name, buf := range cases {
		if _, err := GraphFromArena(buf); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}

func TestArenaByteCorruptionNeverPanics(t *testing.T) {
	g := arenaTestGraph(t, 25, 120, 17)
	good := ArenaWireBytes(g)
	for pos := 0; pos < len(good); pos++ {
		for _, xor := range []byte{0x01, 0x80, 0xff} {
			b := make([]byte, len(good))
			copy(b, good)
			b[pos] ^= xor
			// Must return (graph, nil) only if the arena still verifies;
			// a panic anywhere fails the test.
			if dec, err := GraphFromArena(b); err == nil {
				if verr := dec.Validate(); verr != nil {
					t.Fatalf("corruption at %d xor %#x verified but Validate failed: %v", pos, xor, verr)
				}
			}
		}
	}
}

func TestArenaDecodeAllocs(t *testing.T) {
	g := arenaTestGraph(t, 200, 2000, 19)
	buf := make([]byte, len(g.Arena()))
	copy(buf, g.Arena())
	if !hostLittleEndian {
		t.Skip("big-endian decode copies by design")
	}
	// Zero per-edge allocations: the verified decode allocates only the
	// Graph struct and its fixed set of empty-slice headers.
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := GraphFromArena(buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("GraphFromArena allocates %v objects per decode, want O(1) (<= 4)", allocs)
	}
}

func TestArenaSizeOverflow(t *testing.T) {
	if _, ok := arenaSize(math.MaxUint64, 1); ok {
		t.Fatal("arenaSize accepted MaxUint64 vertices")
	}
	if _, ok := arenaSize(1, math.MaxUint64); ok {
		t.Fatal("arenaSize accepted MaxUint64 edges")
	}
	if size, ok := arenaSize(0, 0); !ok || size != arenaHeaderSize+8 {
		t.Fatalf("arenaSize(0,0) = %d,%v; want %d,true", size, ok, arenaHeaderSize+8)
	}
}

func TestSwapArenaInvolution(t *testing.T) {
	g := arenaTestGraph(t, 35, 140, 29)
	n, m := g.NumVertices(), g.NumEdges()
	once := swapArena(g.Arena(), n, m)
	twice := swapArena(once, n, m)
	if !bytes.Equal(twice, g.Arena()) {
		t.Fatal("swapArena applied twice does not restore the arena")
	}
}
