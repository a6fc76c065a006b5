package graph

import "math/bits"

// Batched multi-source Brandes (MS-Brandes): the betweenness analogue
// of the MS-BFS engine in msbfs.go. Brandes' algorithm runs, per
// source, a BFS that counts shortest paths (sigma) and then a reverse
// sweep that back-propagates pair dependencies (delta); exact
// betweenness needs one such pass per vertex, which made it the last
// per-source traversal in the codebase after closeness, harmonic, and
// eccentricity moved to MS-BFS.
//
// This engine advances MSBFSBatch = 64 Brandes sources at once. The
// forward phase reuses the MS-BFS word layout — per-vertex uint64
// seen/frontier/next words, one bit per source, with the same
// direction-optimizing top-down/bottom-up switch — and additionally
// accumulates per-source shortest-path counts laid out
// batch-contiguously: sigma[v*MSBFSBatch+s] is source s's count at
// vertex v, so the 64 lanes a neighbor word selects are adjacent in
// memory. Discovery is recorded once per batch as a level-chunked
// event list ((vertex, newly-set bits) per committed level); the
// reverse phase then back-propagates all 64 dependency vectors over a
// single reverse sweep of that shared order, rebuilding the
// parent-level bit mask per level from the previous level's events.
// The adjacency scans that the per-source kernel repeats 64 times —
// frontier expansion forward, parent discovery backward — are thus
// paid once per batch; only the per-(vertex, source) floating-point
// updates remain per-lane, and those read and write contiguous lanes.
// The forward phase is a BFS (Brandes 2001): at each level commit it
// can also report the per-lane first-reach counts MS-BFS reports, so
// a caller that needs both betweenness and a distance fold for the
// same sources runs one traversal, not two.
//
// Determinism contract. Sigma counts are integers accumulated in
// float64; they are exact (hence identical to the per-source kernel's)
// while every count stays below 2^53, far beyond any graph this
// repository targets, and independent of traversal direction. The
// dependency accumulation performs exactly the per-source kernel's
// per-(parent, child, source) updates — sigma[v]/sigma[w]*(1+delta[w])
// — but in the shared level order, so accumulated bc/ebc values agree
// with the per-source kernel up to floating-point summation order.
// For a fixed graph and source batch the traversal, the event order,
// and therefore every accumulated float are fully deterministic. The
// level counts are integers that depend only on the source's BFS
// distances, so they equal MSBFSScratch.RunBatch's level for level, in
// the same ascending order, whatever the traversal direction.

// MSBrandesScratch holds the pooled state of batched Brandes passes:
// the frontier machine of the MS-BFS forward phase, the
// batch-contiguous sigma/delta lanes, and the level-chunked discovery
// events consumed by the reverse sweep. A zero MSBrandesScratch is
// ready to use; buffers are sized on first use and grown only when a
// larger graph arrives, so a scratch held per worker makes every warm
// batch allocation-free. Scratches are not safe for concurrent use —
// give each goroutine its own.
//
// Memory: the lane arrays cost 2·8·MSBFSBatch bytes per vertex (1 KiB)
// per scratch, the price of batching 64 dependency vectors; callers
// sharding batches across workers pay it once per worker.
type MSBrandesScratch struct {
	batchState

	// lanes backs sigma and delta: sigma[v*MSBFSBatch+s] is the
	// shortest-path count of source s at v, delta likewise for the
	// accumulated dependency.
	lanes        []float64
	sigma, delta []float64

	// Level-chunked discovery events: evVert[e] gained the source bits
	// evBits[e] at the level L with levelEnd[L-1] > e >= levelEnd[L-2].
	// A vertex appears once per level at which it gained bits, so the
	// events partition the discovered (vertex, source) pairs.
	evVert   []int32
	evBits   []uint64
	levelEnd []int32
}

// resizeLanes points sigma and delta at lane storage for an n-vertex
// graph, reusing the existing array when it is large enough.
func (s *MSBrandesScratch) resizeLanes(n int) {
	k := n * MSBFSBatch
	if cap(s.lanes) < 2*k {
		s.lanes = make([]float64, 2*k)
	}
	s.sigma = s.lanes[0:k:k]
	s.delta = s.lanes[k : 2*k : 2*k]
}

// AccumulateBatch runs one batched Brandes pass from up to MSBFSBatch
// sources (sources[i] owns bit i) and adds each source's unscaled
// dependency deltas into the accumulators: bc[v] receives vertex
// dependencies (when bc is non-nil), ebc[e] receives edge dependencies
// attributed to the edge traversed during back-propagation (when ebc is
// non-nil, indexed by edge ID). Callers apply the undirected 0.5 factor
// and any sampling scale themselves, after all batches.
//
// visit, when non-nil, has RunBatch's contract: it is called after
// every committed forward level, in ascending level order from 1, with
// counts[i] the number of vertices source i first reached at that
// depth. The counts array is reused between levels and must not be
// retained.
//
// labels are g's connected-component labels, as ConnectedComponents
// returns them: the batch starts with every pair they prove
// unreachable already seen. Sources contribute independently per lane,
// so duplicate sources are legal and accumulate twice, and vertices
// unreachable from a source contribute nothing for it. AccumulateBatch
// panics if len(sources) exceeds MSBFSBatch, a source is out of range,
// or labels do not have one entry per vertex.
func (s *MSBrandesScratch) AccumulateBatch(g *Graph, labels, sources []int32, bc, ebc []float64, visit func(level int32, counts *[MSBFSBatch]int32)) {
	if len(sources) == 0 {
		return
	}
	if len(sources) > MSBFSBatch {
		panic("graph: MS-Brandes batch exceeds MSBFSBatch sources")
	}
	full, cur, incompleteDeg := s.seed(g, labels, sources)
	// The lane clears are 64 words per vertex — the constant the
	// batching trades for its shared adjacency scans.
	s.resizeLanes(g.NumVertices())
	clear(s.sigma)
	clear(s.delta)
	s.evVert = s.evVert[:0]
	s.evBits = s.evBits[:0]
	s.levelEnd = s.levelEnd[:0]
	for i, src := range sources {
		s.sigma[int(src)*MSBFSBatch+i] = 1
	}

	s.forward(g, full, incompleteDeg, cur, s.nxt[:0], s.pending[:0], visit)
	s.backward(g, sources, bc, ebc)
}

// forward is the direction-optimized expansion phase: MS-BFS frontier
// advancement plus per-lane sigma accumulation, recording one
// level-chunked event list for the reverse sweep and reporting each
// level's per-lane counts to visit (when non-nil). On return, frontier
// and next are all-zero again.
func (s *MSBrandesScratch) forward(g *Graph, full uint64, incompleteDeg int64, cur, nxt, pending []int32, visit func(int32, *[MSBFSBatch]int32)) {
	n := g.NumVertices()
	pendingBuilt := false
	for level := int32(1); len(cur) > 0; level++ {
		nxt = nxt[:0]
		if s.bottomUp(g, cur, incompleteDeg) {
			// Bottom-up: every vertex still missing sources scans its
			// own neighborhood for frontier bits. Unlike plain MS-BFS
			// there is no early exit — sigma must sum over every parent,
			// exactly as the per-source bottom-up kernel does.
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
				sv := s.sigma[int(v)*MSBFSBatch : int(v)*MSBFSBatch+MSBFSBatch]
				for _, u := range g.Neighbors(v) {
					d := s.frontier[u] & missing
					if d == 0 {
						continue
					}
					acc |= d
					addLanes(sv, s.sigma[int(u)*MSBFSBatch:int(u)*MSBFSBatch+MSBFSBatch], d)
				}
				if acc != 0 {
					s.next[v] = acc
					nxt = append(nxt, v)
				}
			}
			pending = live
		} else {
			// Top-down: frontier vertices push their bits to neighbors
			// not yet seen before this level. d covers bits discovered
			// earlier within the same level too (seen is only folded in
			// at the commit), which is exactly the per-source kernel's
			// "dist[u] == level" sigma condition.
			for _, v := range cur {
				f := s.frontier[v]
				sv := s.sigma[int(v)*MSBFSBatch : int(v)*MSBFSBatch+MSBFSBatch]
				for _, u := range g.Neighbors(v) {
					d := f &^ s.seen[u]
					if d == 0 {
						continue
					}
					if s.next[u] == 0 {
						nxt = append(nxt, u)
					}
					s.next[u] |= d
					addLanes(s.sigma[int(u)*MSBFSBatch:int(u)*MSBFSBatch+MSBFSBatch], sv, d)
				}
			}
		}

		if len(nxt) == 0 {
			for _, v := range cur {
				s.frontier[v] = 0
			}
			break
		}

		// Commit the level: fold the new bits into seen, record the
		// discovery events the reverse sweep replays, and report the
		// level's counts.
		lo := len(s.evBits)
		for _, v := range nxt {
			d := s.next[v]
			s.seen[v] |= d
			if s.seen[v] == full {
				incompleteDeg -= int64(g.Degree(v))
			}
			s.evVert = append(s.evVert, v)
			s.evBits = append(s.evBits, d)
		}
		s.levelEnd = append(s.levelEnd, int32(len(s.evVert)))
		if visit != nil {
			clear(s.counts[:])
			countLanes(&s.counts, s.evBits[lo:])
			visit(level, &s.counts)
		}

		for _, v := range cur {
			s.frontier[v] = 0
		}
		s.frontier, s.next = s.next, s.frontier
		cur, nxt = nxt, cur
	}
}

// backward replays the recorded levels deepest-first, back-propagating
// all lanes' dependencies in one shared sweep. For each level L it
// rebuilds, in the (all-zero) frontier array, the bit mask of sources
// that sit at level L-1, so the parent test per (edge, batch) is one
// word AND; only matching lanes pay floating-point work. Dependency
// order within a level follows discovery order — any level-monotone
// order is valid, which is all Brandes' back-propagation needs.
func (s *MSBrandesScratch) backward(g *Graph, sources []int32, bc, ebc []float64) {
	prev := s.frontier // all-zero after forward
	for lvl := len(s.levelEnd); lvl >= 1; lvl-- {
		lo, hi := int32(0), s.levelEnd[lvl-1]
		if lvl >= 2 {
			lo = s.levelEnd[lvl-2]
		}
		// Install the parent-level mask.
		if lvl == 1 {
			for i, src := range sources {
				prev[src] |= uint64(1) << uint(i)
			}
		} else {
			plo := int32(0)
			if lvl >= 3 {
				plo = s.levelEnd[lvl-3]
			}
			for e := plo; e < s.levelEnd[lvl-2]; e++ {
				prev[s.evVert[e]] |= s.evBits[e]
			}
		}

		for e := lo; e < hi; e++ {
			w := s.evVert[e]
			wb := s.evBits[e]
			sw := s.sigma[int(w)*MSBFSBatch : int(w)*MSBFSBatch+MSBFSBatch]
			dw := s.delta[int(w)*MSBFSBatch : int(w)*MSBFSBatch+MSBFSBatch]
			nbrs := g.Neighbors(w)
			if ebc == nil {
				for _, v := range nbrs {
					pb := prev[v] & wb
					if pb == 0 {
						continue
					}
					sv := s.sigma[int(v)*MSBFSBatch : int(v)*MSBFSBatch+MSBFSBatch]
					dv := s.delta[int(v)*MSBFSBatch : int(v)*MSBFSBatch+MSBFSBatch]
					for m := pb; m != 0; m &= m - 1 {
						b := bits.TrailingZeros64(m)
						dv[b] += sv[b] / sw[b] * (1 + dw[b])
					}
				}
			} else {
				eids := g.IncidentEdges(w)
				for j, v := range nbrs {
					pb := prev[v] & wb
					if pb == 0 {
						continue
					}
					sv := s.sigma[int(v)*MSBFSBatch : int(v)*MSBFSBatch+MSBFSBatch]
					dv := s.delta[int(v)*MSBFSBatch : int(v)*MSBFSBatch+MSBFSBatch]
					edge := &ebc[eids[j]]
					for m := pb; m != 0; m &= m - 1 {
						b := bits.TrailingZeros64(m)
						c := sv[b] / sw[b] * (1 + dw[b])
						dv[b] += c
						*edge += c
					}
				}
			}
			if bc != nil {
				acc := bc[w]
				for m := wb; m != 0; m &= m - 1 {
					acc += dw[bits.TrailingZeros64(m)]
				}
				bc[w] = acc
			}
		}

		// Retire the parent-level mask, restoring the all-zero
		// invariant for the next level (and the next batch).
		if lvl == 1 {
			for _, src := range sources {
				prev[src] = 0
			}
		} else {
			plo := int32(0)
			if lvl >= 3 {
				plo = s.levelEnd[lvl-3]
			}
			for e := plo; e < s.levelEnd[lvl-2]; e++ {
				prev[s.evVert[e]] = 0
			}
		}
	}
}

// addLanes adds src's lanes selected by the bit mask d into dst. The
// full-mask fast path turns the dominant dense case — every source
// advancing through the same edge — into a straight contiguous loop
// with no bit extraction.
func addLanes(dst, src []float64, d uint64) {
	if d == ^uint64(0) {
		_ = dst[MSBFSBatch-1]
		_ = src[MSBFSBatch-1]
		for b := 0; b < MSBFSBatch; b++ {
			dst[b] += src[b]
		}
		return
	}
	for ; d != 0; d &= d - 1 {
		b := bits.TrailingZeros64(d)
		dst[b] += src[b]
	}
}
