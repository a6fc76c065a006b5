// Package unionfind provides a disjoint-set (union-find) data structure
// with union by rank and path compression.
//
// It is the workhorse behind the scalar-tree construction algorithms
// (Algorithms 1 and 3 of the paper), where it tracks which tree nodes
// currently belong to the same subtree. The amortized cost per operation
// is O(alpha(n)), the inverse Ackermann function.
package unionfind

// DSU is a disjoint-set union structure over the integers [0, n).
// Construct one with New, or call Reset on a zero value.
type DSU struct {
	parent []int32
	rank   []int8
}

// New returns a DSU with n singleton sets {0}, {1}, ..., {n-1}.
func New(n int) *DSU {
	d := &DSU{
		parent: make([]int32, n),
		rank:   make([]int8, n),
	}
	for i := range d.parent {
		d.parent[i] = int32(i)
	}
	return d
}

// Reset re-initializes the structure to n singleton sets, reusing the
// existing backing arrays when they are large enough. It lets pooled
// callers (the scalar-tree builders) run repeated sweeps without
// re-allocating O(n) union-find state per build.
func (d *DSU) Reset(n int) {
	if cap(d.parent) < n {
		d.parent = make([]int32, n)
		d.rank = make([]int8, n)
	}
	d.parent = d.parent[:n]
	d.rank = d.rank[:n]
	for i := range d.parent {
		d.parent[i] = int32(i)
	}
	for i := range d.rank {
		d.rank[i] = 0
	}
}

// Find returns the canonical representative of the set containing x,
// compressing paths along the way.
func (d *DSU) Find(x int) int {
	root := x
	for d.parent[root] != int32(root) {
		root = int(d.parent[root])
	}
	// Path compression: point every node on the path directly at the root.
	for d.parent[x] != int32(root) {
		next := d.parent[x]
		d.parent[x] = int32(root)
		x = int(next)
	}
	return root
}

// Union merges the sets containing x and y. It returns true if a merge
// happened, or false if x and y were already in the same set.
func (d *DSU) Union(x, y int) bool {
	rx, ry := d.Find(x), d.Find(y)
	if rx == ry {
		return false
	}
	if d.rank[rx] < d.rank[ry] {
		rx, ry = ry, rx
	}
	d.parent[ry] = int32(rx)
	if d.rank[rx] == d.rank[ry] {
		d.rank[rx]++
	}
	return true
}

// Grow appends k new singleton sets, enabling incremental use cases
// (streaming graphs) where the element universe expands over time.
func (d *DSU) Grow(k int) {
	for i := 0; i < k; i++ {
		d.parent = append(d.parent, int32(len(d.parent)))
		d.rank = append(d.rank, 0)
	}
}
