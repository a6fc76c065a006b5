// Package graph provides the undirected graph substrate used throughout
// the scalar-field visualization pipeline.
//
// Graphs are stored in compressed sparse row (CSR) form: a flat neighbor
// array plus per-vertex offsets. This keeps memory proportional to
// |V| + |E| with no per-vertex allocation, which is what lets the
// pipeline scale to graphs with millions of edges as reported in the
// paper's Table II. Each undirected edge also has a stable integer edge
// ID so that edge-based scalar fields (Section II-C of the paper) can
// attach scalar values to edges.
package graph

import (
	"fmt"
	"sync"
)

// Edge is an undirected edge between vertices U and V, with U <= V
// in the canonical form stored by Graph.
type Edge struct {
	U, V int32
}

// Graph is an immutable undirected simple graph in CSR form.
// Construct one with a Builder or one of the loader/generator helpers.
//
// All CSR storage lives in one contiguous aligned arena (see arena.go)
// and the slice fields below are views into it. The arena is the wire
// form: the snapshot codec's csr2 section is these bytes verbatim, and
// decoding aliases them back — including straight off an mmap'd file.
type Graph struct {
	n int // number of vertices

	// arena is the single backing allocation (or mapping): fixed header
	// followed by the four regions the views below alias.
	arena []byte

	// Vertex adjacency CSR: neighbors of v are adj[adjOff[v]:adjOff[v+1]].
	adjOff []int64
	adj    []int32

	// Parallel to adj: adjEdge[i] is the edge ID of the edge connecting
	// v to adj[i].
	adjEdge []int32

	// Canonical edge list; edge IDs index this slice.
	edges []Edge

	// sum is the arena's wire checksum, computed once by ArenaChecksum.
	sumOnce sync.Once
	sum     uint32
}

// NumVertices reports the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges reports the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Neighbors returns the neighbor list of v. The returned slice aliases
// internal storage and must not be modified.
func (g *Graph) Neighbors(v int32) []int32 {
	return g.adj[g.adjOff[v]:g.adjOff[v+1]]
}

// IncidentEdges returns the IDs of edges incident to v, parallel to
// Neighbors(v). The returned slice aliases internal storage and must
// not be modified.
func (g *Graph) IncidentEdges(v int32) []int32 {
	return g.adjEdge[g.adjOff[v]:g.adjOff[v+1]]
}

// Degree reports the number of edges incident to v.
func (g *Graph) Degree(v int32) int {
	return int(g.adjOff[v+1] - g.adjOff[v])
}

// Edge returns the endpoints of edge id e, with U <= V.
func (g *Graph) Edge(e int32) Edge { return g.edges[e] }

// Edges returns the canonical edge list. The returned slice aliases
// internal storage and must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// HasEdge reports whether an edge between u and v exists. It runs in
// O(min(deg(u), deg(v))) time using a scan of the smaller adjacency
// list (the lists are sorted, so a binary search would also work; the
// scan is friendlier to small degrees, which dominate real graphs).
func (g *Graph) HasEdge(u, v int32) bool {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	return g.findNeighbor(u, v) >= 0
}

// EdgeID returns the ID of the edge between u and v, or -1 if no such
// edge exists.
func (g *Graph) EdgeID(u, v int32) int32 {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	i := g.findNeighbor(u, v)
	if i < 0 {
		return -1
	}
	return g.adjEdge[i]
}

// findNeighbor returns the index into g.adj of v within u's sorted
// neighbor list, or -1. Binary search keeps high-degree hubs cheap.
func (g *Graph) findNeighbor(u, v int32) int64 {
	lo, hi := g.adjOff[u], g.adjOff[u+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case g.adj[mid] == v:
			return mid
		case g.adj[mid] < v:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return -1
}

// MaxDegree reports the maximum vertex degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := int32(0); v < int32(g.n); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// String summarizes the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{V=%d, E=%d}", g.n, len(g.edges))
}

// Validate checks internal CSR invariants. It is intended for tests and
// for verifying externally constructed graphs; it returns a descriptive
// error on the first violation found.
func (g *Graph) Validate() error {
	if len(g.adjOff) != g.n+1 {
		return fmt.Errorf("graph: offsets length %d, want %d", len(g.adjOff), g.n+1)
	}
	if int(g.adjOff[g.n]) != len(g.adj) {
		return fmt.Errorf("graph: final offset %d, want %d", g.adjOff[g.n], len(g.adj))
	}
	if len(g.adj) != 2*len(g.edges) {
		return fmt.Errorf("graph: adjacency size %d, want 2*|E|=%d", len(g.adj), 2*len(g.edges))
	}
	for v := int32(0); v < int32(g.n); v++ {
		nbrs := g.Neighbors(v)
		eids := g.IncidentEdges(v)
		for i, u := range nbrs {
			if u < 0 || int(u) >= g.n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, u)
			}
			if u == v {
				return fmt.Errorf("graph: self-loop at vertex %d", v)
			}
			if i > 0 && nbrs[i-1] >= u {
				return fmt.Errorf("graph: neighbors of %d not strictly sorted at %d", v, i)
			}
			e := g.edges[eids[i]]
			if !(e.U == v && e.V == u) && !(e.U == u && e.V == v) {
				return fmt.Errorf("graph: edge id %d of (%d,%d) maps to %v", eids[i], v, u, e)
			}
		}
	}
	for id, e := range g.edges {
		if e.U > e.V {
			return fmt.Errorf("graph: edge %d = %v not canonical (U>V)", id, e)
		}
	}
	return nil
}
