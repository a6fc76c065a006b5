package graph

import (
	"math/bits"
	"slices"
)

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
// event list ((vertex, newly-set bits) per committed level), and each
// sigma addition as a DAG edge (parent, edge, lanes) filed under its
// child's event. The reverse phase then back-propagates all 64
// dependency vectors by replaying those records deepest level first:
// every shortest-path DAG edge is found by one adjacency scan per
// batch, in the forward phase, and only the per-(edge, source)
// floating-point updates remain per-lane, reading and writing
// contiguous lanes. The records cost 16 bytes per DAG edge of a batch
// (see MSBrandesScratch).
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
// and therefore every accumulated float are fully deterministic: each
// accumulator receives its terms in event order, and the order of one
// event's records touches no shared accumulator. The event order is
// the direction rule's — a top-down level commits in discovery order,
// a bottom-up level in vertex order — so changing that rule moves the
// bits. The level counts are integers that depend only on the
// source's BFS distances, so they equal MSBFSScratch.RunBatch's level
// for level, in the same ascending order, whatever the traversal
// direction.

// MSBrandesScratch holds the pooled state of batched Brandes passes:
// the frontier machine of the MS-BFS forward phase, the
// batch-contiguous sigma/delta lanes, and the level-chunked discovery
// events and DAG edges consumed by the reverse sweep. A zero
// MSBrandesScratch is ready to use; buffers are sized on first use and
// grown only when a larger graph or a deeper DAG arrives, so a scratch
// held per worker makes every warm batch allocation-free. Scratches
// are not safe for concurrent use — give each goroutine its own.
//
// Memory: the lane arrays cost 2·8·MSBFSBatch bytes per vertex (1 KiB)
// per scratch, the price of batching 64 dependency vectors; callers
// sharding batches across workers pay it once per worker. The DAG
// records cost 16 bytes per (child, parent) pair a batch discovers,
// plus a top-down level's own records again while they are regrouped:
// on GrQc at scale 0.25 a batch holds up to 22,283 records, about
// 360 KB per scratch.
type MSBrandesScratch struct {
	batchState

	// lanes backs sigma and delta: sigma[v*MSBFSBatch+s] is the
	// shortest-path count of source s at v, delta likewise for the
	// accumulated dependency.
	lanes        []float64
	sigma, delta []float64

	// Level-chunked discovery events: events[e] belongs to the level L
	// with levelEnd[L-1] > e >= levelEnd[L-2]. A vertex appears once
	// per level at which it gained bits, so the events partition the
	// discovered (vertex, source) pairs.
	events   []event
	levelEnd []int32

	// recs holds the batch's shortest-path DAG, one run per event.
	recs []dagEdge
	// slot is per-vertex: during a level it counts, then ends, each
	// child's run of records.
	slot []int32
}

// event records that vertex v gained the source bits at one level.
// Its DAG edges are recs[end of the previous event:end].
type event struct {
	v, end int32
	bits   uint64
}

// dagEdge is one shortest-path DAG edge of a batch, recorded when the
// forward phase adds parent's sigma into its child's: edge joins them,
// and lanes are the sources for which parent is one level closer. The
// reverse sweep replays exactly these updates, so it finds each DAG
// edge without scanning the child's neighborhood again.
type dagEdge struct {
	parent, edge int32
	lanes        uint64
}

// resize points sigma and delta at lane storage for g, reusing the
// existing arrays when they are large enough, and gives the records
// room for two per edge to start with: one source's DAG uses an edge
// at most once, and a batch's DAG outgrows that only where its lanes
// cross an edge at different levels or in both directions.
func (s *MSBrandesScratch) resize(g *Graph) {
	n := g.NumVertices()
	k := n * MSBFSBatch
	if cap(s.lanes) < 2*k {
		s.lanes = make([]float64, 2*k)
		s.slot = make([]int32, n)
	}
	s.sigma = s.lanes[0:k:k]
	s.delta = s.lanes[k : 2*k : 2*k]
	if m := 2 * g.NumEdges(); cap(s.recs) < m {
		s.recs = make([]dagEdge, 0, m)
	}
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
	s.resize(g)
	clear(s.sigma)
	clear(s.delta)
	s.events = s.events[:0]
	s.levelEnd = s.levelEnd[:0]
	for i, src := range sources {
		s.sigma[int(src)*MSBFSBatch+i] = 1
	}

	s.forward(g, full, incompleteDeg, cur, s.nxt[:0], s.pending[:0], visit)
	s.backward(bc, ebc)
}

// forward is the direction-optimized expansion phase: MS-BFS frontier
// advancement plus per-lane sigma accumulation, recording one
// level-chunked event list and, per event, the DAG edges its sigma
// came through (see dagEdge) for the reverse sweep, and reporting each
// level's per-lane counts to visit (when non-nil). On return, frontier
// and next are all-zero again.
func (s *MSBrandesScratch) forward(g *Graph, full uint64, incompleteDeg int64, cur, nxt, pending []int32, visit func(int32, *[MSBFSBatch]int32)) {
	n := g.NumVertices()
	recs, slot := s.recs[:0], s.slot
	pendingBuilt := false
	for level := int32(1); len(cur) > 0; level++ {
		nxt = nxt[:0]
		if s.bottomUp(g, cur, incompleteDeg) {
			// Bottom-up: every vertex still missing sources scans its
			// own neighborhood for frontier bits. Unlike plain MS-BFS
			// there is no early exit — sigma must sum over every parent,
			// exactly as the per-source bottom-up kernel does. The
			// records come out grouped by child, in event order.
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
				eids := g.IncidentEdges(v)
				for j, u := range g.Neighbors(v) {
					d := s.frontier[u] & missing
					if d == 0 {
						continue
					}
					acc |= d
					addLanes(sv, s.sigma[int(u)*MSBFSBatch:int(u)*MSBFSBatch+MSBFSBatch], d)
					recs = append(recs, dagEdge{u, eids[j], d})
				}
				if acc != 0 {
					s.next[v] = acc
					slot[v] = int32(len(recs))
					nxt = append(nxt, v)
				}
			}
			pending = live
		} else {
			// Top-down: frontier vertices push their bits to neighbors
			// not yet seen before this level. d covers bits discovered
			// earlier within the same level too (seen is only folded in
			// at the commit), which is exactly the per-source kernel's
			// "dist[u] == level" sigma condition. The records come out
			// grouped by parent; slot counts each child's, and
			// groupByChild reorders them.
			base := len(recs)
			for _, v := range cur {
				f := s.frontier[v]
				sv := s.sigma[int(v)*MSBFSBatch : int(v)*MSBFSBatch+MSBFSBatch]
				eids := g.IncidentEdges(v)
				for j, u := range g.Neighbors(v) {
					d := f &^ s.seen[u]
					if d == 0 {
						continue
					}
					if s.next[u] == 0 {
						nxt = append(nxt, u)
						slot[u] = 0
					}
					s.next[u] |= d
					slot[u]++
					addLanes(s.sigma[int(u)*MSBFSBatch:int(u)*MSBFSBatch+MSBFSBatch], sv, d)
					recs = append(recs, dagEdge{v, eids[j], d})
				}
			}
			recs = groupByChild(g, recs, base, nxt, slot)
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
		found := s.found[:0]
		for _, v := range nxt {
			d := s.next[v]
			s.seen[v] |= d
			if s.seen[v] == full {
				incompleteDeg -= int64(g.Degree(v))
			}
			s.events = append(s.events, event{v, slot[v], d})
			found = append(found, d)
		}
		s.levelEnd = append(s.levelEnd, int32(len(s.events)))
		if visit != nil {
			clear(s.counts[:])
			countLanes(&s.counts, found)
			visit(level, &s.counts)
		}

		for _, v := range cur {
			s.frontier[v] = 0
		}
		s.frontier, s.next = s.next, s.frontier
		cur, nxt = nxt, cur
	}
	s.recs = recs
}

// groupByChild reorders a top-down level's records recs[base:], which
// the scan appended grouped by parent, into one run per child, the runs
// in nxt (event) order and each run in scan order. On entry slot[u]
// counts child u's records; on return it holds the end of u's run. A
// record names its parent and edge, so its child is the edge's other
// endpoint. The records pass through the slice's own tail, so one
// growable array holds every record of the batch.
func groupByChild(g *Graph, recs []dagEdge, base int, nxt, slot []int32) []dagEdge {
	k := len(recs) - base
	off := int32(base)
	for _, u := range nxt {
		c := slot[u]
		slot[u] = off
		off += c
	}
	recs = slices.Grow(recs, k)
	tail := recs[len(recs) : len(recs)+k]
	for _, r := range recs[base:] {
		e := g.Edge(r.edge)
		u := e.U ^ e.V ^ r.parent
		tail[int(slot[u])-base] = r
		slot[u]++
	}
	copy(recs[base:], tail)
	return recs
}

// backward replays the recorded levels deepest-first, back-propagating
// all lanes' dependencies in one shared sweep. Each event's records
// are the DAG edges into its vertex w, with the lanes each serves, so
// the sweep scans no adjacency: only the recorded lanes pay
// floating-point work. Events run in discovery order within a level —
// any level-monotone order is valid, which is all Brandes'
// back-propagation needs — and that fixed order is what makes every
// accumulated float deterministic.
func (s *MSBrandesScratch) backward(bc, ebc []float64) {
	for lvl := len(s.levelEnd); lvl >= 1; lvl-- {
		lo := int32(0)
		if lvl >= 2 {
			lo = s.levelEnd[lvl-2]
		}
		for e := lo; e < s.levelEnd[lvl-1]; e++ {
			ev := s.events[e]
			r0 := int32(0)
			if e > 0 {
				r0 = s.events[e-1].end
			}
			recs := s.recs[r0:ev.end]
			w := ev.v
			sw := s.sigma[int(w)*MSBFSBatch : int(w)*MSBFSBatch+MSBFSBatch]
			dw := s.delta[int(w)*MSBFSBatch : int(w)*MSBFSBatch+MSBFSBatch]
			if ebc == nil {
				for _, r := range recs {
					sv := s.sigma[int(r.parent)*MSBFSBatch : int(r.parent)*MSBFSBatch+MSBFSBatch]
					dv := s.delta[int(r.parent)*MSBFSBatch : int(r.parent)*MSBFSBatch+MSBFSBatch]
					for m := r.lanes; m != 0; m &= m - 1 {
						b := bits.TrailingZeros64(m)
						dv[b] += sv[b] / sw[b] * (1 + dw[b])
					}
				}
			} else {
				for _, r := range recs {
					sv := s.sigma[int(r.parent)*MSBFSBatch : int(r.parent)*MSBFSBatch+MSBFSBatch]
					dv := s.delta[int(r.parent)*MSBFSBatch : int(r.parent)*MSBFSBatch+MSBFSBatch]
					edge := &ebc[r.edge]
					for m := r.lanes; m != 0; m &= m - 1 {
						b := bits.TrailingZeros64(m)
						c := sv[b] / sw[b] * (1 + dw[b])
						dv[b] += c
						*edge += c
					}
				}
			}
			if bc != nil {
				acc := bc[w]
				for m := ev.bits; m != 0; m &= m - 1 {
					acc += dw[bits.TrailingZeros64(m)]
				}
				bc[w] = acc
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
