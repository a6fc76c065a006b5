// Package measures computes the graph measures the paper uses as
// scalar fields: k-core and k-truss decompositions (Section II-D),
// degree / betweenness / closeness / harmonic centralities and
// PageRank (Section III-C), triangle counts, and local clustering
// coefficients.
//
// Every function returns plain float64 slices indexed by vertex or
// edge ID, ready to be wrapped in a core.VertexField or core.EdgeField.
package measures

import "repro/internal/graph"

// CoreNumbers computes KC(v) — the K value of the maximal K-Core of
// each vertex (Definition 4 of the paper) — using the Batagelj–
// Zaveršnik O(m) peeling algorithm the paper cites as [5].
//
// The algorithm bucket-sorts vertices by degree and repeatedly removes
// a vertex of minimum remaining degree; its core number is the maximum
// over the peel sequence of the minimum degree seen so far.
func CoreNumbers(g *graph.Graph) []int32 {
	return peelCores(g, nil)
}

// peelCores runs the Batagelj–Zaveršnik peel and returns the core
// numbers. Remaining degrees are never decremented below the current
// threshold k, so a peeled vertex's degree is its core number and the
// unpeeled vertices stay sorted by degree in q.order[i:]. The peel
// therefore runs in onion rounds (OnionLayers): a round is the
// contiguous run of degree k at the front, a vertex whose degree
// falls to k moves to the end of that run, where it forms the next
// round, and when the run is empty k rises to the degree at the front.
// If layer is non-nil, layer[v] is set to v's round, numbered from 1.
func peelCores(g *graph.Graph, layer []int32) []int32 {
	n := g.NumVertices()
	deg := make([]int32, n)
	if n == 0 {
		return deg
	}
	for v := range deg {
		deg[v] = int32(g.Degree(int32(v)))
	}
	q := newBucketQueue(deg, int32(g.MaxDegree()))
	k := int32(0)
	l := int32(0)
	for i := int32(0); i < int32(n); {
		if d := deg[q.order[i]]; d > k {
			k = d
		}
		l++
		for end := q.bin[k+1]; i < end; i++ {
			v := q.order[i]
			if layer != nil {
				layer[v] = l
			}
			for _, u := range g.Neighbors(v) {
				if deg[u] > k {
					q.decrement(u) // else peeled, in this round, or already next
				}
			}
		}
	}
	return deg
}

// bucketQueue is the Batagelj–Zaveršnik bucket layout that the core,
// onion and truss peels share: order lists the items by nondecreasing
// key, pos[x] is x's index in order, and bin[k] is where the key-k
// items start (bin[maxKey+1] is the item count). Each decrement keeps
// this true in O(1), so a peel walks order front to back while the
// keys of the items ahead of it fall.
type bucketQueue struct {
	key, order, pos, bin []int32
}

// newBucketQueue sorts the items by key, every key in [0, maxKey], by
// counting. The queue decrements key in place.
func newBucketQueue(key []int32, maxKey int32) bucketQueue {
	n := len(key)
	slab := make([]int32, 2*n+int(maxKey)+2)
	order, slab := slab[:n], slab[n:]
	pos, bin := slab[:n], slab[n:]
	for _, k := range key {
		bin[k+1]++
	}
	for k := 1; k < len(bin); k++ {
		bin[k] += bin[k-1]
	}
	// Place each item at its bucket's cursor bin[k], which then ends at
	// the next bucket's start; shift bin back by one bucket after.
	for x, k := range key {
		p := bin[k]
		pos[x] = p
		order[p] = int32(x)
		bin[k] = p + 1
	}
	copy(bin[1:maxKey+1], bin[:maxKey])
	bin[0] = 0
	return bucketQueue{key, order, pos, bin}
}

// decrement lowers key[x] by one: x swaps with the first item of its
// bucket (itself, possibly), and that bucket's start moves past it.
func (q *bucketQueue) decrement(x int32) {
	k := q.key[x]
	px, pw := q.pos[x], q.bin[k]
	w := q.order[pw]
	q.order[px], q.order[pw] = w, x
	q.pos[x], q.pos[w] = pw, px
	q.bin[k] = pw + 1
	q.key[x] = k - 1
}

// CoreNumbersFloat wraps CoreNumbers as a float64 scalar field.
func CoreNumbersFloat(g *graph.Graph) []float64 {
	core := CoreNumbers(g)
	out := make([]float64, len(core))
	for i, c := range core {
		out[i] = float64(c)
	}
	return out
}
