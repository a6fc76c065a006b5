package core

// VertexSuperTree builds the complete pipeline for a vertex field:
// Algorithm 1 followed by Algorithm 2.
func VertexSuperTree(f *VertexField) *SuperTree {
	return Postprocess(BuildVertexTree(f))
}

// EdgeSuperTree builds the complete pipeline for an edge field:
// Algorithm 3 followed by Algorithm 2.
func EdgeSuperTree(f *EdgeField) *SuperTree {
	return Postprocess(BuildEdgeTree(f))
}
