// Package query is the concurrent read path of the scalar-field
// pipeline: immutable analysis snapshots, cache-coalesced production,
// and a batched query API resolved against one consistent snapshot.
//
// The paper's interactions — α-cuts, peak selection, MCC lookups,
// contour spectra, multi-field correlation (Sections II-E, II-F) — all
// read products of one analysis run: the scalar field, its super scalar
// tree, the terrain layout, the spectrum. A server answering many
// concurrent readers must never hand out a torn mix of two analyses,
// and must not run the same analysis once per waiting reader. This
// package solves both with one construction:
//
//   - Snapshot: an immutable bundle of graph + scalar field(s) + super
//     tree + terrain + spectrum for one (dataset, measure, color, bins)
//     key. Nothing in a Snapshot is ever mutated after construction, so
//     any number of readers share it without locks.
//   - Engine: an LRU cache of Snapshots with singleflight coalescing —
//     N concurrent requests for an uncached key trigger exactly one
//     analysis through one pooled scalarfield.Analyzer, and everyone
//     waits for that run's result.
//   - a batched operation API (ops.go, http.go): one request carries a
//     list of operations, all answered from a single Snapshot, so a
//     client's α-cut, peak list, and GCI can never disagree about which
//     analysis they describe.
//
// This is the seam later scaling work (sharding, async re-analysis,
// streaming invalidation via internal/stream) plugs into: everything
// above it sees only immutable Snapshots.
package query

import (
	"fmt"
	"sync/atomic"

	scalarfield "repro"
	"repro/internal/contour"
	"repro/internal/graph"
)

// Key identifies one analysis: which dataset, which height measure,
// which (possibly empty) color measure, and how many simplification
// bins. Two requests with equal Keys are answered by the same
// Snapshot.
type Key struct {
	Dataset string `json:"dataset"`
	Measure string `json:"measure"`
	Color   string `json:"color,omitempty"`
	Bins    int    `json:"bins,omitempty"`
}

// ShardString is the canonical routing and hashing form of a key: a
// deterministic, injective flattening of its fields. The consistent-
// hash ring (internal/shard) and the disk store's filenames both hash
// it, so every process in a fleet maps a key to the same owner and the
// same file name.
func (k Key) ShardString() string {
	return fmt.Sprintf("%s\x00%s\x00%s\x00%d", k.Dataset, k.Measure, k.Color, k.Bins)
}

// Snapshot is one immutable analysis: every product a reader needs,
// produced by a single pipeline run over a single graph. Snapshots are
// never mutated after construction — handlers may hold one across an
// entire multi-operation request and answer everything consistently,
// and may keep it after the Engine has evicted the cache entry.
type Snapshot struct {
	// Key is the identity this snapshot was produced for.
	Key Key
	// Seq is the analysis identity number: a deterministic hash of the
	// key and the dataset's invalidation generation. Processes that
	// have seen the same invalidation history therefore agree on it —
	// a fresh fleet's nodes, a restarted process serving disk-stored
	// snapshots, coalesced concurrent requesters — which is what lets
	// a forwarded query response match the owner's byte for byte.
	// Invalidate bumps the generation, so a re-analysis after a data
	// change gets a new Seq while a plain LRU-eviction re-analysis
	// (same inputs, same products) keeps its old one.
	//
	// The generation counter is durable when the engine is given a
	// GenerationStore (cmd/serve wires a GenerationFile under
	// -store-dir): every bump persists atomically before caches evict,
	// so a restarted process re-derives the same Seq for every key and
	// serves its disk-cached snapshots without re-analyzing. Without a
	// GenerationStore the counter is process-local and a restart
	// resets it to zero — Seq equality is then only meaningful within
	// one process lifetime's invalidation lineage.
	Seq uint64
	// gen is the dataset invalidation generation this snapshot was
	// analyzed under; the engine's insert guard compares it against the
	// current generation so a completing analysis that raced an
	// Invalidate can never re-insert a stale snapshot.
	gen uint64
	// Graph is the immutable dataset graph.
	Graph *graph.Graph
	// Edge reports whether the height measure is edge-based (fields
	// index edges and the tree is Algorithm 3's) rather than
	// vertex-based (Algorithm 1).
	Edge bool
	// Values is the raw height field: one scalar per vertex or edge.
	Values []float64
	// ColorValues is the raw color field when Key.Color is set; nil
	// otherwise. Same basis and length as Values.
	ColorValues []float64
	// Terrain is the laid-out, colored terrain over the super scalar
	// tree (possibly simplified by Key.Bins).
	Terrain *scalarfield.Terrain
	// Spectrum is the contour spectrum B0(α) of the super tree.
	Spectrum *contour.Spectrum

	// ref counts references to the snapshot's backing file mapping,
	// when there is one (a DiskStore in mmap mode views the fields, the
	// tree, the spectrum and, unless adopted, the graph in place). nil
	// for heap-backed snapshots, which is every snapshot a fresh
	// analysis produces: their Retain and Release are no-ops, so
	// callers follow one contract everywhere.
	ref *mappingRef
	// graphRef is the reference that keeps the graph's memory alive:
	// ref itself unless the graph was adopted on a cold hit, and then
	// the graphRef of the snapshot adopted from. An adopting snapshot
	// holds one reference on it until its own ref drops to zero, so a
	// graph's mapping outlives every snapshot serving it, and a chain
	// of adoptions pins one mapping, the graph's, not each donor's.
	graphRef *mappingRef
}

// mappingRef counts the holders of one file mapping: the open-entry
// LRU entry of the snapshot whose decode mapped it, every caller a Get
// handed that snapshot, and every snapshot that adopted the graph the
// mapping holds. When the count reaches zero the mapping is released
// (munmap on linux). A holder that forgets Release leaks a mapping —
// deliberately the failure mode, since the alternative (eager unmap)
// would turn a forgotten reference into a use-after-unmap fault in a
// reader.
type mappingRef struct {
	refs    atomic.Int64
	release func()
}

// retain adds a reference; a nil mappingRef is a heap snapshot's.
func (r *mappingRef) retain() {
	if r != nil {
		r.refs.Add(1)
	}
}

// drop removes a reference, releasing the mapping with the last one.
func (r *mappingRef) drop() {
	if r == nil {
		return
	}
	switch n := r.refs.Add(-1); {
	case n == 0:
		r.release()
	case n < 0:
		panic("query: Snapshot.Release without matching reference")
	}
}

// newMappedSnapshotRef wires release to fire when the count drops to
// zero, starting at one: the creation reference, owned by whoever
// constructed the snapshot (the disk store assigns it to its open
// LRU).
func newMappedSnapshotRef(release func()) *mappingRef {
	r := &mappingRef{release: release}
	r.refs.Store(1)
	return r
}

// Retain adds a reference to the snapshot's backing mapping. No-op
// for heap-backed snapshots. Callers receive snapshots already
// retained on their behalf (Engine.Snapshot, SnapshotStore.Get);
// Retain is for handing a held snapshot to another holder with its
// own lifetime.
func (s *Snapshot) Retain() { s.ref.retain() }

// Release drops one reference, releasing the backing mapping when the
// last holder lets go. No-op for heap-backed snapshots, so every
// consumer of Engine.Snapshot can (and should) defer it
// unconditionally. Calling Release more times than Retain+1 is a
// bookkeeping bug; the count going negative panics loudly rather than
// unmapping memory some holder still reads.
func (s *Snapshot) Release() { s.ref.drop() }

// Info is the wire-format identity block of a Snapshot, echoed on
// every batch response so clients can tell which analysis answered.
type Info struct {
	Key
	Edge       bool   `json:"edge"`
	Seq        uint64 `json:"seq"`
	SuperNodes int    `json:"superNodes"`
	Items      int    `json:"items"`
}

// Info returns the snapshot's wire identity.
func (s *Snapshot) Info() Info {
	return Info{
		Key:        s.Key,
		Edge:       s.Edge,
		Seq:        s.Seq,
		SuperNodes: s.Terrain.Tree.Len(),
		Items:      s.Terrain.Tree.NumItems(),
	}
}
