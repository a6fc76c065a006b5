package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
)

// SuperTree is the postprocessed scalar tree of Algorithm 2. When the
// input field has duplicate scalar values, the raw tree of Algorithm 1
// can contain subtrees that are not maximal α-connected components;
// Algorithm 2 repairs this by merging every ancestor with all of its
// equal-scalar descendants into a single super node.
//
// After postprocessing, Properties 2–4 of the scalar-tree definition
// hold again: the subtrees of a SuperTree are exactly the maximal
// α-connected components of the field, nested the same way.
//
// Super nodes are numbered in the BFS order of Algorithm 2's ancestor
// worklist, so every parent precedes its children (Parent[s] < s).
// The items are stored once, in one flat array laid out in DFS
// preorder of the super nodes: a node's own members (ascending) come
// first, then each child's subtree in ascending child order. Every
// subtree is therefore one contiguous range of that array.
//
// A SuperTree is immutable once built: every accessor returns views of
// storage computed at construction, or for SubtreeTop on first use,
// which callers must not modify. It is safe for concurrent use and
// must not be copied.
type SuperTree struct {
	// Parent[s] is super node s's parent, or -1 for a root.
	Parent []int32
	// Scalar[s] is the shared scalar value of every member of s.
	Scalar []float64
	// NodeOf maps each item ID to its super node.
	NodeOf []int32

	// The index: pointer-free views of two allocations, the flat item
	// array and one int32 slab holding the rest (see attachIndex).
	flat  []int32 // items in super-node preorder
	slab  []int32 // end, size, start, off and child, back to back
	start []int32 // start[s]: offset of s's subtree in flat
	end   []int32 // end[s]: offset just past s's own members in flat
	size  []int32 // size[s]: total items in s's subtree
	off   []int32 // s's children are child[off[s]:off[s+1]]
	child []int32 // child lists in CSR form, each ascending

	topOnce sync.Once
	top     []float64 // SubtreeTop, built on first use
}

// Postprocess runs Algorithm 2 on a raw scalar tree: a single pass
// that groups each ancestor with its equal-scalar descendants into
// super nodes. Time complexity is O(|V|), and the number of
// allocations is constant.
func Postprocess(t *Tree) *SuperTree {
	var scratch []int32
	return postprocess(t, &scratch)
}

// postprocess is Postprocess with its scratch slab pooled in *pool,
// which is grown when too small and may hold anything on entry.
func postprocess(t *Tree, pool *[]int32) *SuperTree {
	n := t.Len()
	// One scratch slab: the raw tree's children as CSR (off, child),
	// the ancestor worklist as (node, parent super node) pairs, and the
	// equal-scalar BFS queue. Each raw node enters the worklist or the
	// queue at most once, so n entries bound both.
	if cap(*pool) < 5*n+1 {
		*pool = make([]int32, 5*n+1)
	}
	scratch := (*pool)[:5*n+1]
	off, child := scratch[:n+1], scratch[n+1:2*n+1]
	ancNode, ancParent := scratch[2*n+1:3*n+1], scratch[3*n+1:4*n+1]
	queue := scratch[4*n+1:]
	childCSR(t.Parent, off, child)

	nodeOf := make([]int32, n)
	// (ancNode, ancParent) is the ancestors worklist from the paper's
	// pseudocode: each entry starts a new super node that absorbs the
	// node's equal-scalar descendant closure; the super node's ID is its
	// worklist index.
	tail := 0
	for i, p := range t.Parent {
		if p < 0 {
			ancNode[tail], ancParent[tail] = int32(i), -1
			tail++
		}
	}
	for s := 0; s < tail; s++ {
		a := ancNode[s]
		// BFS over the equal-scalar closure below a.
		queue[0] = a
		for head, qlen := 0, 1; head < qlen; head++ {
			nq := queue[head]
			nodeOf[nq] = int32(s)
			for _, nc := range child[off[nq]:off[nq+1]] {
				if t.Scalar[nc] == t.Scalar[nq] {
					queue[qlen] = nc
					qlen++
				} else {
					ancNode[tail], ancParent[tail] = nc, int32(s)
					tail++
				}
			}
		}
	}

	st := &SuperTree{
		Parent: make([]int32, tail),
		Scalar: make([]float64, tail),
		NodeOf: nodeOf,
	}
	copy(st.Parent, ancParent[:tail])
	for s, a := range ancNode[:tail] {
		st.Scalar[s] = t.Scalar[a]
	}
	st.index()
	return st
}

// childCSR fills off (len(parent)+1) and child (len(parent)) with the
// child lists of a parent array in CSR form: the children of p are
// child[off[p]:off[p+1]], ascending because nodes are placed in ID
// order. Roots (parent < 0) are nobody's child, so child's tail past
// off[len(parent)] is left untouched.
func childCSR(parent, off, child []int32) {
	clear(off)
	for _, p := range parent {
		if p >= 0 {
			off[p+1]++
		}
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	// Fill cursor: off[p] walks up to the old off[p+1]; shifting back
	// restores the offsets afterwards.
	for i, p := range parent {
		if p >= 0 {
			child[off[p]] = int32(i)
			off[p]++
		}
	}
	for p := len(off) - 1; p > 0; p-- {
		off[p] = off[p-1]
	}
	off[0] = 0
}

// index lays out the flat preorder item array from Parent and NodeOf
// in O(#super + #items) and two allocations, and derives the member
// and subtree ranges and the child lists from it. It requires
// Parent[s] < s and every NodeOf entry in range.
func (st *SuperTree) index() {
	n, m := len(st.Parent), len(st.NodeOf)
	ints := make([]int32, 5*n+1)
	count, size, start := ints[:n], ints[n:2*n], ints[2*n:3*n]
	for _, s := range st.NodeOf {
		count[s]++
	}
	copy(size, count)
	for s := n - 1; s >= 0; s-- {
		if p := st.Parent[s]; p >= 0 {
			size[p] += size[s]
		}
	}
	// Preorder offsets in ascending ID order: a parent's start is set
	// before any child's, and child subtrees follow the parent's own
	// members in ascending child order. cursor[p] is the next free slot
	// of p's range, starting just past its own members.
	cursor := count
	rootNext := int32(0)
	for s := 0; s < n; s++ {
		if p := st.Parent[s]; p < 0 {
			start[s] = rootNext
			rootNext += size[s]
		} else {
			start[s] = cursor[p]
			cursor[p] += size[s]
		}
		cursor[s] += start[s]
	}
	// Scatter items in ascending ID order into their node's member
	// slots; cursor[s] ends just past s's members.
	copy(cursor, start)
	flat := make([]int32, m)
	for item, s := range st.NodeOf {
		flat[cursor[s]] = int32(item)
		cursor[s]++
	}
	st.attachIndex(flat, ints)
	childCSR(st.Parent, st.off, st.child)
}

// attachIndex makes flat and slab the tree's index. slab holds 5n+1
// int32s for n super nodes: the member ends, the subtree sizes, the
// subtree starts, then the child offsets (n+1) and child lists, the
// layout index builds and the SFST codec stores.
func (st *SuperTree) attachIndex(flat, slab []int32) {
	n := len(st.Parent)
	st.flat, st.slab = flat, slab
	st.end, st.size, st.start = slab[:n:n], slab[n:2*n:2*n], slab[2*n:3*n:3*n]
	st.off, st.child = slab[3*n:4*n+1:4*n+1], slab[4*n+1:]
}

// Len reports the number of super nodes.
func (st *SuperTree) Len() int { return len(st.Parent) }

// NumItems reports the number of underlying items (vertices or edges).
func (st *SuperTree) NumItems() int { return len(st.NodeOf) }

// Roots returns the root super nodes in increasing ID order.
func (st *SuperTree) Roots() []int32 {
	var roots []int32
	for i, p := range st.Parent {
		if p < 0 {
			roots = append(roots, int32(i))
		}
	}
	return roots
}

// Members returns the item IDs (vertices or edges) merged into super
// node s, in increasing ID order, as a view of the tree's flat item
// array. Callers must not modify the result.
func (st *SuperTree) Members(s int32) []int32 {
	return st.flat[st.start[s]:st.end[s]:st.end[s]]
}

// Children returns the children of super node s in increasing ID
// order, as a view of the tree's child array. Callers must not modify
// the result.
func (st *SuperTree) Children(s int32) []int32 {
	return st.child[st.off[s]:st.off[s+1]:st.off[s+1]]
}

// SubtreeSize returns the total number of items in the subtree rooted
// at each super node (including the node's own members). Callers must
// not modify the result.
func (st *SuperTree) SubtreeSize() []int32 { return st.size }

// SubtreeRange returns every item in the subtree rooted at s as a view
// of the tree's flat item array, in super-node preorder rather than
// item order. It suits scans that need neither order nor ownership;
// callers must not modify the result.
func (st *SuperTree) SubtreeRange(s int32) []int32 {
	lo := st.start[s]
	hi := lo + st.size[s]
	return st.flat[lo:hi:hi]
}

// SubtreeItems returns every item in the subtree rooted at s,
// in increasing item-ID order.
func (st *SuperTree) SubtreeItems(s int32) []int32 {
	return st.AppendSubtreeItems(make([]int32, 0, st.size[s]), s, -1)
}

// MCC returns the items of MCC(item): the maximal α-connected
// component with α = item's scalar that contains the item
// (Definition 2 / Proposition 2 of the paper). In the super tree this
// is exactly the subtree rooted at the item's super node.
func (st *SuperTree) MCC(item int32) []int32 {
	return st.SubtreeItems(st.NodeOf[item])
}

// ComponentRootsAt returns the roots ComponentRoots yields, in
// increasing ID order.
func (st *SuperTree) ComponentRootsAt(alpha float64) []int32 {
	return slices.Collect(st.ComponentRoots(alpha))
}

// ComponentsAt returns the item sets of all maximal α-connected
// components for the given α, one sorted slice per component, ordered
// by each component's smallest item ID. This is the tree-based
// counterpart of the brute-force extraction used as a test oracle.
func (st *SuperTree) ComponentsAt(alpha float64) [][]int32 {
	roots := st.ComponentRootsAt(alpha)
	if len(roots) == 0 {
		return nil
	}
	total := 0
	for _, r := range roots {
		total += int(st.size[r])
	}
	// The components are disjoint subtrees: carve them all from one
	// buffer.
	buf := st.AppendComponents(make([]int32, 0, total), roots, -1)
	comps := make([][]int32, len(roots))
	for i, r := range roots {
		comps[i], buf = buf[:st.size[r]:st.size[r]], buf[st.size[r]:]
	}
	slices.SortFunc(comps, func(a, b []int32) int { return cmp.Compare(a[0], b[0]) })
	return comps
}

// Validate checks super-tree invariants: super nodes numbered
// topologically (every parent precedes its children, which also rules
// out cycles), monotone scalars along parent links with strict
// inequality (equal-scalar chains must have been merged), and every
// item assigned to exactly one non-empty super node. It runs in
// O(#super + #items).
func (st *SuperTree) Validate() error {
	if err := st.validateLinks(); err != nil {
		return err
	}
	n := len(st.Parent)
	if len(st.start) != n || len(st.end) != n {
		return fmt.Errorf("core: super tree is not indexed")
	}
	total := 0
	for s := int32(0); s < int32(n); s++ {
		if st.start[s] == st.end[s] {
			return fmt.Errorf("core: super node %d has no members", s)
		}
		for _, m := range st.Members(s) {
			if m < 0 || int(m) >= len(st.NodeOf) || st.NodeOf[m] != s {
				return fmt.Errorf("core: item %d in members of %d but not mapped to it", m, s)
			}
		}
		total += int(st.end[s] - st.start[s])
	}
	if total != len(st.NodeOf) {
		return fmt.Errorf("core: super tree covers %d items, want %d", total, len(st.NodeOf))
	}
	return nil
}

// validateLinks checks the invariants index relies on — topological
// parents and in-range item mapping — plus NaN-free scalars and strict
// scalar monotonicity. A NaN would slip past the monotonicity test,
// which no comparison with NaN fails.
func (st *SuperTree) validateLinks() error {
	n := len(st.Parent)
	if len(st.Scalar) != n {
		return fmt.Errorf("core: super tree slice lengths disagree")
	}
	for s, p := range st.Parent {
		if math.IsNaN(st.Scalar[s]) {
			return fmt.Errorf("core: super node %d scalar is NaN", s)
		}
		if p < -1 || int(p) >= s {
			return fmt.Errorf("core: super node %d has parent %d, want -1 or a smaller ID", s, p)
		}
		if p >= 0 && st.Scalar[s] <= st.Scalar[p] {
			return fmt.Errorf("core: super node %d scalar %g not strictly above parent's %g",
				s, st.Scalar[s], st.Scalar[p])
		}
	}
	for item, s := range st.NodeOf {
		if s < 0 || int(s) >= n {
			return fmt.Errorf("core: item %d maps to invalid super node %d", item, s)
		}
	}
	return nil
}
