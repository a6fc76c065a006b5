package core

import "sort"

// PeakPersistence quantifies how prominent each local peak of the
// scalar tree is, in the sense of topological persistence: a maximal
// α-connected component is "born" at the α where its top-most super
// node appears and "dies" when the sweep merges it into a component
// with a higher top. The persistence of a leaf-rooted branch is
// (birth - death); high-persistence branches are the peaks a viewer
// should trust, low-persistence ones are noise that simplification may
// flatten.
//
// This mirrors how the topological-landscape literature the paper
// builds on (Weber et al., Harvey & Wang) ranks features of a merge
// tree, and powers PersistenceSimplify below.
type PeakPersistence struct {
	// Node is the super node where the branch is born (a local-max
	// node: no child has a higher subtree top).
	Node int32
	// Birth is the branch top's scalar (its peak height).
	Birth float64
	// Death is the scalar at which the branch merges into a taller
	// sibling branch, or the global minimum of its tree for the
	// most-persistent branch of each component.
	Death float64
}

// Persistence reports Birth - Death.
func (p PeakPersistence) Persistence() float64 { return p.Birth - p.Death }

// Persistences computes the branch decomposition of the super tree:
// one entry per leaf super node, sorted by descending persistence.
//
// Each super node s has a "branch top" — the maximum scalar in its
// subtree. Standard merge-tree branch decomposition: walking from
// every leaf down to the root, a leaf's branch dies at the first
// ancestor whose other children contain a strictly taller (or equal,
// with lower node ID winning) top.
func Persistences(st *SuperTree) []PeakPersistence {
	out, _ := persistences(st)
	return out
}

// persistences is Persistences that also returns top, where top[s] is
// the maximum scalar in the subtree of s.
func persistences(st *SuperTree) ([]PeakPersistence, []float64) {
	n := st.Len()
	if n == 0 {
		return nil, nil
	}
	// top[s] = max scalar in subtree of s; carrier[s] = the leaf
	// achieving it (ties: smallest leaf ID).
	top := make([]float64, n)
	carrier := make([]int32, n)
	// Node IDs are topologically ordered parent-first, so a reverse
	// scan accumulates subtree maxima.
	for s := int32(n - 1); s >= 0; s-- {
		top[s] = st.Scalar[s]
		carrier[s] = s
		for _, c := range st.Children(s) {
			if top[c] > top[s] || (top[c] == top[s] && carrier[c] < carrier[s]) {
				top[s] = top[c]
				carrier[s] = carrier[c]
			}
		}
	}
	// Leaves are the branch births.
	var out []PeakPersistence
	for s := int32(0); s < int32(n); s++ {
		if len(st.Children(s)) > 0 {
			continue
		}
		// Walk rootward until this leaf stops being the carrier.
		death := st.Scalar[s]
		node := s
		for p := st.Parent[node]; p >= 0; p = st.Parent[node] {
			if carrier[p] != carrier[s] {
				// Branch merges into a taller branch at p.
				death = st.Scalar[p]
				break
			}
			node = p
			death = st.Scalar[p] // may end at the root
		}
		out = append(out, PeakPersistence{Node: s, Birth: st.Scalar[s], Death: death})
	}
	sort.SliceStable(out, func(i, j int) bool {
		pi, pj := out[i].Persistence(), out[j].Persistence()
		if pi != pj {
			return pi > pj
		}
		return out[i].Node < out[j].Node
	})
	return out, top
}

// PersistenceSimplify flattens low-persistence branches of a vertex
// field: every vertex whose branch persists less than threshold has
// its scalar clamped down to the branch's death value, removing
// sub-peak noise while leaving prominent peaks untouched. It returns a
// new field; the input is not modified.
//
// This is the principled alternative to uniform discretization
// (Discretize) when the goal is fewer visual peaks rather than fewer
// distinct values.
func PersistenceSimplify(f *VertexField, threshold float64) *VertexField {
	st := VertexSuperTree(f)
	out := make([]float64, len(f.Values))
	copy(out, f.Values)
	branches, top := persistences(st)
	for _, pp := range branches {
		if pp.Persistence() >= threshold {
			continue
		}
		// Clamp the whole branch (from its birth leaf up to where it
		// merges) to the death value. The branch's nodes are those
		// whose subtree top is this leaf's top carrier — walking from
		// the leaf down, stop before the merge node.
		node := pp.Node
		for {
			for _, item := range st.Members(node) {
				if out[item] > pp.Death {
					out[item] = pp.Death
				}
			}
			p := st.Parent[node]
			if p < 0 || st.Scalar[p] <= pp.Death {
				break
			}
			// Continue only while the parent still belongs to this
			// branch (it has no other child with a taller top).
			taller := false
			for _, c := range st.Children(p) {
				if c != node && top[c] >= pp.Birth {
					taller = true
					break
				}
			}
			if taller {
				break
			}
			node = p
		}
	}
	return &VertexField{G: f.G, Values: out}
}
