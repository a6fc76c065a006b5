package graph

// ConnectedComponents labels every vertex with a component ID in
// [0, count) and returns the labels plus the component count.
// Labels are assigned in order of first discovery by vertex ID, so the
// labeling is deterministic. The labels are the batched traversal
// engines' input (MSBFSScratch.RunBatch, MSBrandesScratch.
// AccumulateBatch), so the pass makes one allocation: every vertex is
// pushed once, and the work stack shares the labels' backing array.
func ConnectedComponents(g *Graph) (labels []int32, count int) {
	n := g.NumVertices()
	buf := make([]int32, 2*n)
	labels = buf[:n:n]
	for i := range labels {
		labels[i] = -1
	}
	queue := buf[n:n]
	for s := int32(0); s < int32(n); s++ {
		if labels[s] >= 0 {
			continue
		}
		labels[s] = int32(count)
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, u := range g.Neighbors(v) {
				if labels[u] < 0 {
					labels[u] = int32(count)
					queue = append(queue, u)
				}
			}
		}
		count++
	}
	return labels, count
}

// BFSDistances returns hop distances from src to every vertex, with -1
// for unreachable vertices. The returned slice is freshly allocated;
// callers running one BFS per source should hold a BFSScratch and call
// its Distances method instead, which allocates nothing after warm-up.
func BFSDistances(g *Graph, src int32) []int32 {
	var s BFSScratch
	return s.Distances(g, src)
}

// BFSScratch holds the reusable state of repeated BFS traversals: the
// distance array and the frontier queue. A zero BFSScratch is ready to
// use; the buffers are sized on first use and grown only when a larger
// graph arrives, so a scratch held per worker makes every subsequent
// traversal allocation-free. Scratches are not safe for concurrent
// use — give each goroutine its own.
type BFSScratch struct {
	dist  []int32
	queue []int32
}

// Distances computes hop distances from src to every vertex, with -1
// for unreachable vertices. The returned slice aliases the scratch's
// internal storage: it is valid only until the next Distances call and
// must not be modified or retained.
func (s *BFSScratch) Distances(g *Graph, src int32) []int32 {
	n := g.NumVertices()
	if cap(s.dist) < n {
		s.dist = make([]int32, n)
		s.queue = make([]int32, 0, n)
	}
	dist := s.dist[:n]
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := append(s.queue[:0], src)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, u := range g.Neighbors(v) {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	s.dist, s.queue = dist, queue
	return dist
}

// KHopNeighborhood returns the set of vertices within k hops of src,
// including src itself, in BFS discovery order.
func KHopNeighborhood(g *Graph, src int32, k int) []int32 {
	dist := map[int32]int32{src: 0}
	queue := []int32{src}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		if dist[v] == int32(k) {
			continue
		}
		for _, u := range g.Neighbors(v) {
			if _, seen := dist[u]; !seen {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return queue
}

// InducedSubgraph extracts the subgraph induced by the given vertices.
// It returns the new graph and a mapping from new vertex IDs back to
// the original IDs (the inverse of the compaction).
func InducedSubgraph(g *Graph, vertices []int32) (*Graph, []int32) {
	remap := make(map[int32]int32, len(vertices))
	orig := make([]int32, len(vertices))
	for _, v := range vertices {
		if _, dup := remap[v]; dup {
			continue
		}
		remap[v] = int32(len(remap))
		orig[remap[v]] = v
	}
	orig = orig[:len(remap)]
	b := NewBuilder(len(remap))
	for _, v := range vertices {
		nv, ok := remap[v]
		if !ok {
			continue
		}
		for _, u := range g.Neighbors(v) {
			if nu, ok := remap[u]; ok && nv < nu {
				b.AddEdge(nv, nu)
			}
		}
	}
	return b.Build(), orig
}

// LargestComponent returns the subgraph induced by the largest
// connected component, plus the original vertex IDs of its vertices.
func LargestComponent(g *Graph) (*Graph, []int32) {
	labels, count := ConnectedComponents(g)
	if count <= 1 {
		orig := make([]int32, g.NumVertices())
		for i := range orig {
			orig[i] = int32(i)
		}
		return g, orig
	}
	sizes := make([]int, count)
	for _, l := range labels {
		sizes[l]++
	}
	best := 0
	for c, s := range sizes {
		if s > sizes[best] {
			best = c
		}
	}
	var members []int32
	for v, l := range labels {
		if int(l) == best {
			members = append(members, int32(v))
		}
	}
	return InducedSubgraph(g, members)
}
