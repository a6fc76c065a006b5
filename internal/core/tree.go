package core

import "fmt"

// Tree is the raw scalar tree produced by Algorithm 1 (vertex fields)
// or Algorithm 3 (edge fields), before super-node postprocessing.
//
// Node i corresponds one-to-one to item i of the underlying field
// (vertex i for a vertex tree, edge i for an edge tree), satisfying
// Property 1 of the scalar-tree definition. Parent[i] is the node's
// parent, or -1 for a root; because the underlying graph may be
// disconnected, Tree is in general a forest with one root per
// connected component. Every node's scalar is >= its parent's scalar.
type Tree struct {
	Parent []int32
	Scalar []float64

	// Order is the sweep order: item IDs sorted by decreasing scalar
	// (ties broken by increasing ID). Exposed because downstream
	// consumers (layout, simplification) reuse the same ordering.
	Order []int32
}

// Len reports the number of nodes in the tree.
func (t *Tree) Len() int { return len(t.Parent) }

// Roots returns the root node IDs, one per connected component of the
// underlying graph, in increasing ID order.
func (t *Tree) Roots() []int32 {
	var roots []int32
	for i, p := range t.Parent {
		if p < 0 {
			roots = append(roots, int32(i))
		}
	}
	return roots
}

// Children returns, for every node, its child list (sorted by ID).
// All lists are views of one CSR array built in a single pass.
func (t *Tree) Children() [][]int32 {
	n := len(t.Parent)
	csr := make([]int32, 2*n+1)
	off, child := csr[:n+1], csr[n+1:]
	childCSR(t.Parent, off, child)
	ch := make([][]int32, n)
	for i := range ch {
		ch[i] = child[off[i]:off[i+1]:off[i+1]]
	}
	return ch
}

// SubtreeItems returns all item IDs in the subtree rooted at node,
// including node itself, in DFS preorder.
func (t *Tree) SubtreeItems(node int32) []int32 {
	ch := t.Children()
	items := []int32{node}
	for i := 0; i < len(items); i++ {
		items = append(items, ch[items[i]]...)
	}
	return items
}

// Validate checks the structural invariants of a scalar tree:
// acyclicity, a root per tree, and the merge-tree monotonicity
// property that every node's scalar is >= its parent's.
func (t *Tree) Validate() error {
	n := len(t.Parent)
	if len(t.Scalar) != n {
		return fmt.Errorf("core: tree has %d parents but %d scalars", n, len(t.Scalar))
	}
	// Monotonicity.
	for i, p := range t.Parent {
		if p < -1 || int(p) >= n {
			return fmt.Errorf("core: node %d has out-of-range parent %d", i, p)
		}
		if p >= 0 && t.Scalar[i] < t.Scalar[p] {
			return fmt.Errorf("core: node %d scalar %g < parent %d scalar %g",
				i, t.Scalar[i], p, t.Scalar[p])
		}
	}
	// Acyclicity: walking parents from any node must terminate. A walk
	// longer than n nodes implies a cycle.
	for i := range t.Parent {
		steps := 0
		for v := int32(i); v >= 0; v = t.Parent[v] {
			steps++
			if steps > n {
				return fmt.Errorf("core: parent cycle reachable from node %d", i)
			}
		}
	}
	return nil
}
