package core

import (
	"sort"

	"repro/internal/unionfind"
)

// Serial and ablation tree builders, kept as test oracles: the
// production builders (parallel or counting sweep-order sort, pooled
// state, CSR adjacency, path-compressed union-find) must produce
// bit-identical trees.

// sweepOrder returns item IDs sorted by the sweep comparator with the
// serial driver: the reference every production sort driver must
// match bit for bit.
func sweepOrder(values []float64) []int32 {
	order := make([]int32, len(values))
	for i := range order {
		order[i] = int32(i)
	}
	sortChunk(order, values)
	return order
}

// BuildVertexTreeSerial is BuildVertexTree with the sweep order
// computed by the serial sort regardless of input size: the oracle for
// the parallel-by-default path, which must build a bit-identical tree.
func BuildVertexTreeSerial(f *VertexField) *Tree {
	return buildTree(f.Values, sweepOrder(f.Values), f.G.Neighbors)
}

// BuildEdgeTreeSerial is BuildEdgeTree with the serial sweep-order
// sort regardless of input size — the oracle for the
// parallel-by-default path, which must build a bit-identical tree.
func BuildEdgeTreeSerial(f *EdgeField) *Tree {
	order := sweepOrder(f.Values)
	return buildTree(f.Values, order, prop3Adjacency(f, order))
}

// buildTreeOnMapGraph is the ablation twin of BuildVertexTree running
// on the adjacency-map representation, for the CSR layout benchmark
// and the cross-representation oracle test.
func buildTreeOnMapGraph(adj map[int32][]int32, values []float64) *Tree {
	return buildTree(values, sweepOrder(values), func(v int32) []int32 { return adj[v] })
}

// buildVertexTreeNaiveUF is the ablation twin of BuildVertexTree using
// a union-find with no path compression or union by rank, for the
// union-find benchmark and the cross-implementation oracle test.
func buildVertexTreeNaiveUF(f *VertexField) *Tree {
	n := f.G.NumVertices()
	t := &Tree{
		Parent: make([]int32, n),
		Scalar: make([]float64, n),
		Order:  sweepOrder(f.Values),
	}
	copy(t.Scalar, f.Values)
	for i := range t.Parent {
		t.Parent[i] = -1
	}
	dsu := unionfind.NewNaive(n)
	compRoot := make([]int32, n)
	for i := range compRoot {
		compRoot[i] = int32(i)
	}
	processed := make([]bool, n)
	for _, vi := range t.Order {
		for _, vj := range f.G.Neighbors(vi) {
			if !processed[vj] {
				continue
			}
			ri, rj := dsu.Find(int(vi)), dsu.Find(int(vj))
			if ri == rj {
				continue
			}
			t.Parent[compRoot[rj]] = vi
			dsu.Union(ri, rj)
			compRoot[dsu.Find(int(vi))] = vi
		}
		processed[vi] = true
	}
	return t
}

// oracleSuperTree is the super tree as Algorithm 2 first built it: one
// Members slice per super node, lazily cached child lists and subtree
// sizes, and stack walks plus a sort for every subtree read. The
// production SuperTree, with its flat preorder item array, must agree
// with it on every node.
type oracleSuperTree struct {
	Parent  []int32
	Scalar  []float64
	Members [][]int32
	NodeOf  []int32

	children [][]int32 // lazily built
	size     []int32   // lazily built: total items in each subtree
}

// postprocessOracle is Algorithm 2 as originally written: per-node
// member slices, a fresh BFS queue per super node, and a sort of each
// member list.
func postprocessOracle(t *Tree) *oracleSuperTree {
	n := t.Len()
	st := &oracleSuperTree{NodeOf: make([]int32, n)}
	for i := range st.NodeOf {
		st.NodeOf[i] = -1
	}
	ch := treeChildrenOracle(t)

	newSuper := func(parent int32, scalar float64) int32 {
		s := int32(len(st.Parent))
		st.Parent = append(st.Parent, parent)
		st.Scalar = append(st.Scalar, scalar)
		st.Members = append(st.Members, nil)
		return s
	}

	type anc struct {
		node   int32
		parent int32 // parent super node, -1 for roots
	}
	var ancestors []anc
	for _, r := range t.Roots() {
		ancestors = append(ancestors, anc{r, -1})
	}
	for head := 0; head < len(ancestors); head++ {
		a := ancestors[head]
		s := newSuper(a.parent, t.Scalar[a.node])
		// BFS over the equal-scalar closure below a.node.
		queue := []int32{a.node}
		for len(queue) > 0 {
			nq := queue[0]
			queue = queue[1:]
			st.Members[s] = append(st.Members[s], nq)
			st.NodeOf[nq] = s
			for _, nc := range ch[nq] {
				if t.Scalar[nc] == t.Scalar[nq] {
					queue = append(queue, nc)
				} else {
					ancestors = append(ancestors, anc{nc, s})
				}
			}
		}
		sort.Slice(st.Members[s], func(i, j int) bool { return st.Members[s][i] < st.Members[s][j] })
	}
	return st
}

// treeChildrenOracle is Tree.Children as originally written: append
// per parent, then one sort per child list.
func treeChildrenOracle(t *Tree) [][]int32 {
	ch := make([][]int32, len(t.Parent))
	for i, p := range t.Parent {
		if p >= 0 {
			ch[p] = append(ch[p], int32(i))
		}
	}
	for _, c := range ch {
		sort.Slice(c, func(a, b int) bool { return c[a] < c[b] })
	}
	return ch
}

func (st *oracleSuperTree) Children() [][]int32 {
	if st.children != nil {
		return st.children
	}
	ch := make([][]int32, len(st.Parent))
	for i, p := range st.Parent {
		if p >= 0 {
			ch[p] = append(ch[p], int32(i))
		}
	}
	st.children = ch
	return ch
}

func (st *oracleSuperTree) SubtreeSize() []int32 {
	if st.size != nil {
		return st.size
	}
	size := make([]int32, len(st.Parent))
	for s := len(st.Parent) - 1; s >= 0; s-- {
		size[s] += int32(len(st.Members[s]))
		if p := st.Parent[s]; p >= 0 {
			size[p] += size[s]
		}
	}
	st.size = size
	return size
}

func (st *oracleSuperTree) SubtreeItems(s int32) []int32 {
	ch := st.Children()
	var items []int32
	stack := []int32{s}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		items = append(items, st.Members[v]...)
		stack = append(stack, ch[v]...)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	return items
}

func (st *oracleSuperTree) MCC(item int32) []int32 {
	return st.SubtreeItems(st.NodeOf[item])
}

func (st *oracleSuperTree) ComponentsAt(alpha float64) [][]int32 {
	var comps [][]int32
	for s := range st.Parent {
		if st.Scalar[s] < alpha {
			continue
		}
		if p := st.Parent[s]; p < 0 || st.Scalar[p] < alpha {
			comps = append(comps, st.SubtreeItems(int32(s)))
		}
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i][0] < comps[j][0] })
	return comps
}
