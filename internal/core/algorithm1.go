package core

// BuildVertexTree runs Algorithm 1 of the paper: it sweeps vertices in
// decreasing scalar order and, whenever the current vertex touches an
// already-processed subtree it is not yet part of, attaches that
// subtree's current root beneath the current vertex. The current
// vertex thereby becomes the new root of the merged subtree, mirroring
// how level-set components merge as α decreases.
//
// Union-find tracks subtree membership, so the total cost is
// O(|E|·α(|V|) + |V|·log|V|), dominated by the initial sort —
// exactly the bound stated in Section II-B. Because the sort is the
// asymptotic bottleneck, the sweep order is computed by parallel merge
// sort by default (serial below par.SerialCutoff); the output is
// bit-identical to a serial comparison sort either way.
func BuildVertexTree(f *VertexField) *Tree {
	return buildTree(f.Values, parallelSweepOrder(f.Values), f.G.Neighbors)
}
