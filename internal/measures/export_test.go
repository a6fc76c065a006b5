package measures

// Graph builders for the external measures_test package.
var (
	RandomGraph       = randomGraph
	CompleteGraph     = completeGraph
	CompleteBipartite = completeBipartite
)
