package graph

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"repro/internal/wire"
)

// The arena: every Graph's CSR storage in one contiguous, 8-byte-
// aligned allocation. The four logical arrays — vertex offsets,
// neighbor list, incident-edge list, canonical edge list — are laid
// out back to back behind a fixed self-describing header, and the
// Graph's slice fields are views into that one buffer:
//
//	offset  0: magic "CSRA" (4 bytes)
//	offset  4: version u16 (currently 1)
//	offset  6: flags   u16 (reserved, zero)
//	offset  8: numVertices u64
//	offset 16: numEdges    u64
//	offset 24: arenaBytes  u64 (total size, header included)
//	offset 32: reserved (32 zero bytes)
//	offset 64: adjOff  (numVertices+1) × i64
//	      ...: adj      2·numEdges × i32
//	      ...: adjEdge  2·numEdges × i32
//	      ...: edges    numEdges × (i32 u, i32 v)
//
// numbers little-endian on the wire. Every region size is a multiple
// of 8 bytes, so a header at offset 0 keeps all regions naturally
// aligned and the whole arena needs no padding.
//
// Why one buffer: the arena IS the wire form. The snapshot codec's
// csr2 section writes these bytes verbatim, and decoding is
// header-validate + alias — O(header), no edge-by-edge rebuild — which
// is also what lets a disk-served snapshot map the graph section
// straight off the file (internal/mmapio) with no resident heap copy. On little-endian
// hosts (every supported platform today) the in-memory views read the
// wire bytes directly; a big-endian host converts once at decode and
// at encode, so the file format stays portable.

const (
	arenaMagic      = "CSRA"
	arenaVersion    = 1
	arenaHeaderSize = 64
)

// hostLittleEndian reports whether native integer byte order matches
// the arena wire order. On the (overwhelmingly common) little-endian
// hosts, encode and decode are zero-copy; big-endian hosts convert
// through the portable paths below.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// arenaSize returns the total arena byte size for n vertices and m
// edges, or ok=false when the size does not fit in an int (a hostile
// header on a 32-bit platform, or absurd counts anywhere).
func arenaSize(n, m uint64) (int, bool) {
	if n > math.MaxInt32 || m > math.MaxInt32 {
		return 0, false
	}
	size := uint64(arenaHeaderSize) + 8*(n+1) + 8*m + 8*m + 8*m
	if size > uint64(math.MaxInt-1) {
		return 0, false
	}
	return int(size), true
}

// ArenaBytes reports the size of the arena (and hence of the csr2 wire
// section) for a graph with n vertices and m edges.
func ArenaBytes(n, m int) int {
	size, ok := arenaSize(uint64(n), uint64(m))
	if !ok {
		panic(fmt.Sprintf("graph: arena size overflow for %d vertices / %d edges", n, m))
	}
	return size
}

// newArena allocates a zeroed arena with its header filled in. The
// backing array is allocated as []uint64 so the base address is
// 8-byte aligned by construction, then viewed as bytes.
func newArena(n, m int) []byte {
	size := ArenaBytes(n, m)
	words := make([]uint64, (size+7)/8)
	buf := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), size)
	copy(buf[0:4], arenaMagic)
	binary.LittleEndian.PutUint16(buf[4:6], arenaVersion)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(n))
	binary.LittleEndian.PutUint64(buf[16:24], uint64(m))
	binary.LittleEndian.PutUint64(buf[24:32], uint64(size))
	return buf
}

// arenaRegions computes the byte offsets of the four regions for n
// vertices and m edges. Sizes are pre-validated by the caller.
func arenaRegions(n, m int) (offEnd, adjEnd, adjEdgeEnd int) {
	offEnd = arenaHeaderSize + 8*(n+1)
	adjEnd = offEnd + 8*m
	adjEdgeEnd = adjEnd + 8*m
	return
}

// viewInt64 returns buf[off:off+8n] as an []int64 without copying.
// buf's base must be 8-byte aligned (callers guarantee it).
func viewInt64(buf []byte, off, n int) []int64 {
	if n == 0 {
		return []int64{}
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&buf[off])), n)
}

// viewInt32 returns buf[off:off+4n] as an []int32 without copying.
func viewInt32(buf []byte, off, n int) []int32 {
	if n == 0 {
		return []int32{}
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&buf[off])), n)
}

// viewEdges returns buf[off:off+8n] as an []Edge without copying. Edge
// is exactly two int32 fields, so its in-memory layout matches the
// arena's i32-pair region byte for byte.
func viewEdges(buf []byte, off, n int) []Edge {
	if n == 0 {
		return []Edge{}
	}
	return unsafe.Slice((*Edge)(unsafe.Pointer(&buf[off])), n)
}

// attachArena points g's CSR slice fields into the arena buffer and
// records the buffer. The caller guarantees the buffer is 8-byte
// aligned, at least ArenaBytes(n, m) long, and (on the decode paths)
// header-consistent.
func attachArena(g *Graph, buf []byte, n, m int) {
	offEnd, adjEnd, adjEdgeEnd := arenaRegions(n, m)
	g.n = n
	g.arena = buf
	g.adjOff = viewInt64(buf, arenaHeaderSize, n+1)
	g.adj = viewInt32(buf, offEnd, 2*m)
	g.adjEdge = viewInt32(buf, adjEnd, 2*m)
	g.edges = viewEdges(buf, adjEdgeEnd, m)
}

// aligned8 reports whether the slice's base address is 8-byte aligned
// — the precondition for aliasing it as i64/i32 views.
func aligned8(buf []byte) bool {
	if len(buf) == 0 {
		return true
	}
	return uintptr(unsafe.Pointer(&buf[0]))%8 == 0
}

// Arena returns the graph's backing arena: header plus the four CSR
// regions, in the wire layout above, in native byte order. The slice
// aliases the graph's own storage — treat it as read-only. On
// little-endian hosts it is byte-identical to the csr2 wire section.
func (g *Graph) Arena() []byte { return g.arena }

// ArenaWireBytes returns the graph's arena in wire (little-endian)
// byte order. On little-endian hosts this is the arena itself, no
// copy; big-endian hosts get a freshly converted copy. The result
// aliases graph storage on LE hosts — write it out, do not mutate it.
func ArenaWireBytes(g *Graph) []byte {
	if hostLittleEndian {
		return g.arena
	}
	return swapArena(g.arena, g.n, len(g.edges))
}

// ArenaChecksum returns wire.Checksum of the graph's wire arena — the
// checksum a snapshot container records for a csr2 section holding
// it — computing it on the first call only.
func (g *Graph) ArenaChecksum() uint32 {
	g.sumOnce.Do(func() { g.sum = wire.Checksum(ArenaWireBytes(g)) })
	return g.sum
}

// swapArena converts an arena between wire and native byte order on
// big-endian hosts: a fresh aligned buffer with every u64/i64 region
// entry and every i32 region entry byte-swapped. The transform is an
// involution, so it serves both encode and decode.
func swapArena(src []byte, n, m int) []byte {
	size := ArenaBytes(n, m)
	words := make([]uint64, (size+7)/8)
	dst := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), size)
	copy(dst, src[:size])
	// Header u16s and u64s.
	swap16 := func(off int) { dst[off], dst[off+1] = dst[off+1], dst[off] }
	swap64 := func(off int) {
		for i, j := off, off+7; i < j; i, j = i+1, j-1 {
			dst[i], dst[j] = dst[j], dst[i]
		}
	}
	swap32 := func(off int) {
		dst[off], dst[off+3] = dst[off+3], dst[off]
		dst[off+1], dst[off+2] = dst[off+2], dst[off+1]
	}
	swap16(4)
	swap16(6)
	swap64(8)
	swap64(16)
	swap64(24)
	offEnd, adjEnd, adjEdgeEnd := arenaRegions(n, m)
	for off := arenaHeaderSize; off < offEnd; off += 8 {
		swap64(off)
	}
	for off := offEnd; off < adjEnd; off += 4 {
		swap32(off)
	}
	for off := adjEnd; off < adjEdgeEnd; off += 4 {
		swap32(off)
	}
	for off := adjEdgeEnd; off < size; off += 4 {
		swap32(off)
	}
	return dst
}

// arenaHeader validates the fixed header of a wire-order arena and
// returns its vertex and edge counts. It checks everything knowable
// in O(1): magic, version, count sanity, and that the declared and
// actual byte sizes agree exactly — so a hostile header can neither
// balloon an allocation (aliasing allocates nothing) nor declare
// regions beyond the bytes that are actually present.
func arenaHeader(buf []byte) (n, m int, err error) {
	if len(buf) < arenaHeaderSize {
		return 0, 0, fmt.Errorf("graph: arena truncated: %d bytes, need %d-byte header", len(buf), arenaHeaderSize)
	}
	if string(buf[0:4]) != arenaMagic {
		return 0, 0, fmt.Errorf("graph: bad arena magic %q", buf[0:4])
	}
	if v := binary.LittleEndian.Uint16(buf[4:6]); v != arenaVersion {
		return 0, 0, fmt.Errorf("graph: unsupported arena version %d (want %d)", v, arenaVersion)
	}
	n64 := binary.LittleEndian.Uint64(buf[8:16])
	m64 := binary.LittleEndian.Uint64(buf[16:24])
	declared := binary.LittleEndian.Uint64(buf[24:32])
	size, ok := arenaSize(n64, m64)
	if !ok {
		return 0, 0, fmt.Errorf("graph: implausible arena counts %d vertices / %d edges", n64, m64)
	}
	if declared != uint64(size) {
		return 0, 0, fmt.Errorf("graph: arena declares %d bytes, counts imply %d", declared, size)
	}
	if len(buf) != size {
		return 0, 0, fmt.Errorf("graph: arena is %d bytes, header implies %d", len(buf), size)
	}
	return int(n64), int(m64), nil
}

// GraphFromArena decodes a graph from its arena bytes (the csr2 wire
// section) by validating and aliasing — the buffer becomes the graph's
// storage, shared for the graph's whole lifetime, so the caller must
// not mutate it afterwards and must keep any backing mapping alive as
// long as the graph is in use.
//
// The decode allocates nothing proportional to the graph: no per-edge
// work beyond a read-only structural verification (offsets monotone,
// neighbors sorted and in range, edge IDs consistent with the edge
// list) that makes a corrupt or hostile arena an error instead of a
// latent panic in a traversal kernel. Cost is one linear scan over
// bytes actually present. Misaligned buffers (and big-endian hosts)
// fall back to one aligned (converted) copy.
//
// For bytes of already-verified provenance — a file this process
// wrote and just mapped, an arena handed across an API boundary — use
// GraphFromArenaTrusted to skip the structural scan.
func GraphFromArena(buf []byte) (*Graph, error) {
	return graphFromArena(buf, true)
}

// GraphFromArenaTrusted is GraphFromArena without the structural
// verification scan: header checks only, O(1). The caller vouches for
// the bytes; feeding it an unverified arena trades error returns for
// undefined traversal behavior. Use it for re-opening artifacts this
// process (or a trusted peer) produced and verified before.
func GraphFromArenaTrusted(buf []byte) (*Graph, error) {
	return graphFromArena(buf, false)
}

func graphFromArena(buf []byte, verify bool) (*Graph, error) {
	n, m, err := arenaHeader(buf)
	if err != nil {
		return nil, err
	}
	switch {
	case !hostLittleEndian:
		buf = swapArena(buf, n, m)
	case !aligned8(buf):
		// A misaligned source (e.g. a payload sliced mid-buffer) gets
		// one aligned copy; everything after still aliases that copy.
		size := len(buf)
		words := make([]uint64, (size+7)/8)
		dst := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), size)
		copy(dst, buf)
		buf = dst
	}
	g := &Graph{}
	attachArena(g, buf, n, m)
	if verify {
		if err := g.verifyArena(); err != nil {
			return nil, fmt.Errorf("graph: arena failed verification: %w", err)
		}
	}
	return g, nil
}

// verifyArena is the untrusted-decode structural check: one read-only
// linear pass over the aliased regions proving every CSR invariant a
// traversal kernel indexes through, ordered so no check indexes with a
// value a later check would have rejected — Validate assumes sane
// offsets; this must not. Allocation-free; errors, never panics.
func (g *Graph) verifyArena() error {
	n, m := g.n, len(g.edges)
	total := int64(2 * m)
	if g.adjOff[0] != 0 {
		return fmt.Errorf("first offset %d, want 0", g.adjOff[0])
	}
	for v := 1; v <= n; v++ {
		if g.adjOff[v] < g.adjOff[v-1] || g.adjOff[v] > total {
			return fmt.Errorf("offset %d of vertex %d out of order (prev %d, max %d)",
				g.adjOff[v], v, g.adjOff[v-1], total)
		}
	}
	if g.adjOff[n] != total {
		return fmt.Errorf("final offset %d, want 2·|E| = %d", g.adjOff[n], total)
	}
	for v := int32(0); v < int32(n); v++ {
		nbrs := g.Neighbors(v)
		eids := g.IncidentEdges(v)
		for i, u := range nbrs {
			if u < 0 || int(u) >= n || u == v {
				return fmt.Errorf("vertex %d has invalid neighbor %d", v, u)
			}
			if i > 0 && nbrs[i-1] >= u {
				return fmt.Errorf("neighbors of %d not strictly sorted at %d", v, i)
			}
			id := eids[i]
			if id < 0 || int(id) >= m {
				return fmt.Errorf("vertex %d has out-of-range edge id %d", v, id)
			}
			e := g.edges[id]
			if !(e.U == v && e.V == u) && !(e.U == u && e.V == v) {
				return fmt.Errorf("edge id %d of (%d,%d) maps to (%d,%d)", id, v, u, e.U, e.V)
			}
		}
	}
	prev := Edge{U: -1, V: -1}
	for id, e := range g.edges {
		if e.U < 0 || e.V >= int32(n) || e.U >= e.V {
			return fmt.Errorf("edge %d = (%d,%d) not canonical", id, e.U, e.V)
		}
		if e.U < prev.U || (e.U == prev.U && e.V <= prev.V) {
			return fmt.Errorf("edge %d = (%d,%d) not in ascending canonical order", id, e.U, e.V)
		}
		prev = e
	}
	return nil
}
