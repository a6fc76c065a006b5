package graph

import (
	"fmt"
	"slices"
)

// Builder accumulates edges and produces an immutable Graph.
// Duplicate edges and self-loops are dropped during Build, so callers
// may add edges freely without deduplicating first.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a Builder for a graph over vertices [0, n).
// Vertices with no incident edges are legal and remain isolated.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// Grow increases the vertex count to at least n.
func (b *Builder) Grow(n int) {
	if n > b.n {
		b.n = n
	}
}

// NumVertices reports the current vertex count.
func (b *Builder) NumVertices() int { return b.n }

// AddEdge records an undirected edge between u and v. Self-loops are
// silently ignored; duplicates are removed at Build time. AddEdge
// panics if either endpoint is out of range, which indicates a caller
// bug rather than a data error.
func (b *Builder) AddEdge(u, v int32) {
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, Edge{u, v})
}

// Build produces the immutable CSR graph. The Builder may be reused
// afterwards, but edges added before Build are retained.
func (b *Builder) Build() *Graph {
	edges := make([]Edge, len(b.edges))
	copy(edges, b.edges)
	// slices.SortFunc over sort.Slice: no interface boxing and no
	// closure capturing the slice header.
	slices.SortFunc(edges, func(a, b Edge) int {
		if a.U != b.U {
			return int(a.U) - int(b.U)
		}
		return int(a.V) - int(b.V)
	})
	// Deduplicate.
	out := edges[:0]
	for i, e := range edges {
		if i > 0 && e == edges[i-1] {
			continue
		}
		out = append(out, e)
	}
	edges = out
	return fromCanonicalEdges(b.n, edges)
}

// FromEdges builds a graph over n vertices directly from an edge list.
// It is a convenience wrapper around Builder.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}

// FromAdjacency builds a graph from an adjacency-list description,
// useful for small hand-written test graphs. adjacency[v] lists the
// neighbors of v; each edge may appear in one or both directions.
func FromAdjacency(adjacency [][]int32) *Graph {
	b := NewBuilder(len(adjacency))
	for v, nbrs := range adjacency {
		for _, u := range nbrs {
			b.AddEdge(int32(v), u)
		}
	}
	return b.Build()
}

// fromCanonicalEdges assembles the CSR arrays from a deduplicated,
// sorted, canonical (U<=V, no self-loop) edge list, building directly
// into one contiguous arena (arena.go): the slice fields of the
// returned graph are views into a single allocation that doubles as
// the csr2 wire section.
func fromCanonicalEdges(n int, edges []Edge) *Graph {
	g := &Graph{}
	attachArena(g, newArena(n, len(edges)), n, len(edges))
	copy(g.edges, edges)
	edges = g.edges
	// Count degrees.
	deg := make([]int64, n)
	for _, e := range edges {
		deg[e.U]++
		deg[e.V]++
	}
	for v := 0; v < n; v++ {
		g.adjOff[v+1] = g.adjOff[v] + deg[v]
	}
	// Fill using a moving cursor per vertex.
	cursor := make([]int64, n)
	copy(cursor, g.adjOff[:n])
	for id, e := range edges {
		g.adj[cursor[e.U]] = e.V
		g.adjEdge[cursor[e.U]] = int32(id)
		cursor[e.U]++
		g.adj[cursor[e.V]] = e.U
		g.adjEdge[cursor[e.V]] = int32(id)
		cursor[e.V]++
	}
	// Sort each vertex's neighbor slice (with parallel edge IDs).
	for v := 0; v < n; v++ {
		lo, hi := g.adjOff[v], g.adjOff[v+1]
		sortParallel(g.adj[lo:hi], g.adjEdge[lo:hi])
	}
	return g
}

// sortParallel sorts keys ascending, permuting vals identically.
// Insertion sort: neighbor lists arrive nearly sorted because the edge
// list itself is sorted, so this is effectively linear in practice.
func sortParallel(keys, vals []int32) {
	for i := 1; i < len(keys); i++ {
		k, v := keys[i], vals[i]
		j := i - 1
		for j >= 0 && keys[j] > k {
			keys[j+1], vals[j+1] = keys[j], vals[j]
			j--
		}
		keys[j+1], vals[j+1] = k, v
	}
}

// MapGraph is an adjacency-map graph representation kept only as an
// ablation baseline against the CSR Graph (see DESIGN.md §4.5). It
// supports the minimal neighbor iteration needed by the scalar-tree
// benchmarks.
type MapGraph struct {
	Adj map[int32][]int32
	N   int
}

// NewMapGraph converts g to the map representation.
func NewMapGraph(g *Graph) *MapGraph {
	m := &MapGraph{Adj: make(map[int32][]int32, g.NumVertices()), N: g.NumVertices()}
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		nbrs := g.Neighbors(v)
		cp := make([]int32, len(nbrs))
		copy(cp, nbrs)
		m.Adj[v] = cp
	}
	return m
}
