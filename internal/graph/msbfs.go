package graph

// Batched multi-source BFS (MS-BFS) with bit-parallel frontiers, after
// Then et al., "The More the Merrier: Efficient Multi-Source Graph
// Traversal" (VLDB 2015), combined with the direction-optimizing
// top-down/bottom-up switch of Beamer et al. (SC 2012).
//
// The distance-based centralities (closeness, harmonic) need one BFS
// per source — O(|V|·|E|) total — and dominate every full-graph
// analysis. MS-BFS runs up to 64 of those traversals simultaneously:
// each vertex carries one uint64 word per role (visited, current
// frontier, next frontier) whose bit i belongs to source i, so one
// AND/OR over a neighbor word advances all 64 traversals at once. The
// per-edge work of a batch is shared across its sources, which is
// where the order-of-magnitude win over per-source BFS comes from.
//
// Distances are not materialized per (source, vertex) pair — that
// would cost 64×|V| words per batch. Instead the engine reports, after
// each completed BFS level, how many vertices each source reached at
// that depth. Those level counts are exactly what the distance-based
// folds consume: closeness needs Σ level·count and Σ count, harmonic
// needs Σ count/level. Folds over level counts are deterministic —
// the counts are set-determined, independent of traversal direction,
// worker count, and visit order.

// MSBFSBatch is the number of BFS sources one batch advances in
// parallel: the width of the frontier machine word.
const MSBFSBatch = 64

// Direction-switch policy. Top-down work is Σ deg(v) over the frontier;
// bottom-up work is bounded by Σ deg(v) over vertices not yet seen by
// the whole batch, with early exit once a vertex has found all its
// sources. A batch starts with every unreachable (source, vertex) pair
// already seen (see batchState.seed), so that bound covers only the
// components the batch's sources live in, and vertices elsewhere never
// join the bottom-up pending list. Switching when the frontier's edge
// budget exceeds 1/msbfsAlpha of the remaining unseen edge budget
// follows Beamer's m_f > m_u/α rule; the small-frontier floor keeps
// tiny graphs and sparse tails on the exact-cost top-down path. The
// choice affects only speed, never results: both directions compute
// the same next-frontier sets.
const (
	msbfsAlpha       = 8
	msbfsMinFrontier = 32
)

// Test hook values for batchState.forceDir.
const (
	msbfsAuto int8 = iota
	msbfsForceTopDown
	msbfsForceBottomUp
)

// batchState is the bit-parallel frontier machine both batched engines
// (MS-BFS and MS-Brandes) run on: per-vertex seen/frontier/next words
// with one bit per source, a per-component mask buffer, and the
// frontier/pending vertex lists.
type batchState struct {
	// words backs comp/seen/frontier/next/found: one allocation, five
	// views.
	words []uint64
	// lists backs cur/nxt/pending the same way.
	lists []int32

	// comp[c] holds, during seed only, the bits of the batch's sources
	// in component c; it is all-zero between batches.
	comp                 []uint64
	seen, frontier, next []uint64
	cur, nxt, pending    []int32

	// found holds an MS-BFS level's newly set bit words while it
	// commits, one per vertex reached, for countLanes.
	found []uint64

	// counts is the per-level report buffer handed to a visitor; it
	// lives on the scratch (not the stack) so passing its address to an
	// arbitrary visitor does not force a per-batch heap allocation.
	counts [MSBFSBatch]int32

	// forceDir pins the traversal direction for tests (msbfsAuto in
	// production): oracle tests force both directions and require
	// identical results.
	forceDir int8
}

// resize points the views at backing storage for an n-vertex graph,
// reusing the existing arrays when they are large enough.
func (s *batchState) resize(n int) {
	if cap(s.words) < 5*n {
		s.words = make([]uint64, 5*n)
		s.lists = make([]int32, 3*n)
	} else if len(s.comp) != n {
		// A view of another size overlaps words the old seen/frontier/
		// next views left dirty; comp must start all-zero.
		clear(s.words[:n])
	}
	w := s.words
	s.comp, s.seen = w[0:n:n], w[n:2*n:2*n]
	s.frontier, s.next = w[2*n:3*n:3*n], w[3*n:4*n:4*n]
	s.found = w[4*n : 4*n : 5*n]
	l := s.lists
	s.cur, s.nxt, s.pending = l[0:0:n], l[n:n:2*n], l[2*n:2*n:3*n]
}

// seed starts a batch of 1 to MSBFSBatch sources (sources[i] owns bit
// i) on a graph whose connected components are labeled by labels. It
// returns the mask of all the batch's bits, the first frontier, and
// the degree sum over vertices some source has not yet seen.
//
// A source never reaches a vertex outside its own component, so seed
// marks those pairs seen up front: one O(|V|) pass sets seen[v] to the
// bits of the sources outside v's component. A vertex in no source's
// component starts complete, costs the traversal nothing, and leaves
// the direction switch's unseen budget.
//
// Every invariant the traversal relies on is re-established here
// rather than assumed, so a panic in a previous batch cannot poison
// this one.
func (s *batchState) seed(g *Graph, labels, sources []int32) (full uint64, cur []int32, incompleteDeg int64) {
	n := g.NumVertices()
	if len(labels) != n {
		panic("graph: component labels do not match the graph")
	}
	s.resize(n)
	full = ^uint64(0)
	if k := len(sources); k < MSBFSBatch {
		full = 1<<uint(k) - 1
	}

	// The zeroing loop range-checks every source before comp gains a
	// bit, so a bad source cannot leave comp dirty.
	comp := s.comp
	for _, src := range sources {
		comp[labels[src]] = 0
	}
	for i, src := range sources {
		comp[labels[src]] |= uint64(1) << uint(i)
	}
	seen := s.seen
	for v, c := range labels {
		m := comp[c]
		seen[v] = full &^ m
		if m != 0 {
			incompleteDeg += int64(g.Degree(int32(v)))
		}
	}
	for _, src := range sources {
		comp[labels[src]] = 0
	}
	clear(s.frontier)
	clear(s.next)

	cur = s.cur[:0]
	for i, src := range sources {
		bit := uint64(1) << uint(i)
		if s.frontier[src] == 0 {
			cur = append(cur, src)
		}
		s.frontier[src] |= bit
		seen[src] |= bit
	}
	for _, v := range cur {
		if seen[v] == full {
			incompleteDeg -= int64(g.Degree(v))
		}
	}
	return full, cur, incompleteDeg
}

// bottomUp reports whether the next level expands bottom-up.
func (s *batchState) bottomUp(g *Graph, cur []int32, incompleteDeg int64) bool {
	switch s.forceDir {
	case msbfsForceTopDown:
		return false
	case msbfsForceBottomUp:
		return true
	}
	if len(cur) < msbfsMinFrontier {
		return false
	}
	frontierDeg := int64(0)
	for _, v := range cur {
		frontierDeg += int64(g.Degree(v))
	}
	return frontierDeg*msbfsAlpha > incompleteDeg
}

// MSBFSScratch holds the pooled state of batched traversals: the
// bit-field arrays and vertex lists of the frontier machine. A zero
// MSBFSScratch is ready to use; buffers are sized on first use and
// grown only when a larger graph arrives, so a scratch held per worker
// makes every warm batch allocation-free. Scratches are not safe for
// concurrent use — give each goroutine its own.
type MSBFSScratch struct {
	batchState
}

// RunBatch runs one batched BFS from up to MSBFSBatch sources
// (sources[i] owns bit i) and calls visit after every completed level
// with the number of vertices each source first reached at that depth:
// counts[i] is source i's count at the given level (levels start at 1;
// the sources themselves, depth 0, are not reported, matching the
// d > 0 guard of the distance folds). The counts array is reused
// between levels and must not be retained.
//
// labels are g's connected-component labels, as ConnectedComponents
// returns them; the batch starts with every pair they prove
// unreachable already seen. Any sources are legal, from one component
// or many, but a batch whose sources share a component shares the most
// work. Vertices unreachable from a source simply never appear in its
// counts, so disconnected graphs and isolated vertices need no special
// casing in the fold. Duplicate sources are legal and traverse
// identically. RunBatch panics if len(sources) exceeds MSBFSBatch, a
// source is out of range, or labels do not have one entry per vertex.
func (s *MSBFSScratch) RunBatch(g *Graph, labels, sources []int32, visit func(level int32, counts *[MSBFSBatch]int32)) {
	if len(sources) == 0 {
		return
	}
	if len(sources) > MSBFSBatch {
		panic("graph: MS-BFS batch exceeds MSBFSBatch sources")
	}
	n := g.NumVertices()
	full, cur, incompleteDeg := s.seed(g, labels, sources)
	nxt, pending := s.nxt[:0], s.pending[:0]

	pendingBuilt := false
	counts := &s.counts
	for level := int32(1); len(cur) > 0; level++ {
		nxt = nxt[:0]
		if s.bottomUp(g, cur, incompleteDeg) {
			// Bottom-up: every vertex still missing sources scans its
			// own neighborhood for frontier bits, with early exit once
			// all missing bits are found. The pending list is built on
			// the first bottom-up level and compacted as vertices
			// complete; it stays a valid superset across intervening
			// top-down levels.
			if !pendingBuilt {
				for v := int32(0); v < int32(n); v++ {
					if s.seen[v] != full {
						pending = append(pending, v)
					}
				}
				pendingBuilt = true
			}
			live := pending[:0]
			for _, v := range pending {
				missing := full &^ s.seen[v]
				if missing == 0 {
					continue
				}
				live = append(live, v)
				var acc uint64
				for _, u := range g.Neighbors(v) {
					acc |= s.frontier[u]
					if acc&missing == missing {
						break
					}
				}
				if d := acc & missing; d != 0 {
					s.next[v] = d
					nxt = append(nxt, v)
				}
			}
			pending = live
		} else {
			// Top-down: frontier vertices push their bits to neighbors
			// that have not seen them yet.
			for _, v := range cur {
				f := s.frontier[v]
				for _, u := range g.Neighbors(v) {
					if d := f &^ s.seen[u]; d != 0 {
						if s.next[u] == 0 {
							nxt = append(nxt, u)
						}
						s.next[u] |= d
					}
				}
			}
		}

		if len(nxt) == 0 {
			for _, v := range cur {
				s.frontier[v] = 0
			}
			break
		}

		// Commit the level: fold the newly set bits into seen, count
		// them per source, and report. next bits are disjoint from seen
		// by construction in both directions.
		found := s.found[:0]
		for _, v := range nxt {
			d := s.next[v]
			s.seen[v] |= d
			if s.seen[v] == full {
				incompleteDeg -= int64(g.Degree(v))
			}
			found = append(found, d)
		}
		clear(counts[:])
		countLanes(counts, found)
		visit(level, counts)

		for _, v := range cur {
			s.frontier[v] = 0
		}
		s.frontier, s.next = s.next, s.frontier
		cur, nxt = nxt, cur
	}
}

// spreadBits[x] holds bit j of x in byte j. Adding spreadBits of a
// word's byte k into a uint64 adds that byte's eight lanes, 8k to
// 8k+7, to eight packed 8-bit counters at once.
var spreadBits = func() (t [256]uint64) {
	for x := range t {
		for j := 0; j < 8; j++ {
			t[x] |= uint64(x>>j&1) << (8 * j)
		}
	}
	return t
}()

// countLanes adds to counts[i] the number of words whose bit i is set.
// It counts through byte-packed counters (spreadBits), eight table
// adds per word whatever the word's popcount, and unpacks them every
// 255 words, before an 8-bit counter can overflow.
func countLanes(counts *[MSBFSBatch]int32, words []uint64) {
	for len(words) > 0 {
		chunk := words[:min(len(words), 255)]
		words = words[len(chunk):]
		var a0, a1, a2, a3, a4, a5, a6, a7 uint64
		for _, d := range chunk {
			a0 += spreadBits[byte(d)]
			a1 += spreadBits[byte(d>>8)]
			a2 += spreadBits[byte(d>>16)]
			a3 += spreadBits[byte(d>>24)]
			a4 += spreadBits[byte(d>>32)]
			a5 += spreadBits[byte(d>>40)]
			a6 += spreadBits[byte(d>>48)]
			a7 += spreadBits[byte(d>>56)]
		}
		for k, a := range [8]uint64{a0, a1, a2, a3, a4, a5, a6, a7} {
			for j := 0; j < 8; j++ {
				counts[8*k+j] += int32(a >> (8 * j) & 0xff)
			}
		}
	}
}
