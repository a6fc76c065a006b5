// Package datasets provides deterministic synthetic graph generators
// and stand-ins for the paper's Table I datasets.
//
// The paper evaluates on SNAP downloads (GrQc, Wikivote, Wikipedia,
// PPI, Cit-Patent, Amazon, Astro, DBLP). Those files are not available
// offline, so each dataset is replaced by a generator matched to the
// original's structural family — collaboration networks are overlapping
// coauthor cliques, link/vote/citation networks are preferential
// attachment (heavy-tailed, deep k-cores), co-purchase networks are
// planted communities — at the original (or scaled) node/edge counts.
// The scalar-tree pipeline consumes only topology and scalar values,
// so these families exercise the same code paths and produce the same
// qualitative terrain shapes the paper reports (one dominant core for
// vote/link graphs, several separated dense cores for collaboration
// graphs).
package datasets

import (
	"math"
	"math/rand"

	"repro/internal/graph"
)

// ErdosRenyi generates G(n, m): n vertices, m uniformly random edges
// (after dedup the realized count can be slightly lower).
func ErdosRenyi(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.Build()
}

// BarabasiAlbertVarM is preferential attachment with a per-vertex
// attachment count drawn uniformly from [1, 2·meanM], so core numbers
// spread over a range instead of collapsing to a single value (pure BA
// with constant m gives every vertex core number m, which would make
// the k-core terrain a single plateau). The early seed vertices form a
// denser clique, giving the single dominant core the paper observes in
// vote/link networks.
func BarabasiAlbertVarM(n, meanM int, seed int64) *graph.Graph {
	if meanM < 1 {
		meanM = 1
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	targets := make([]int32, 0, 2*n*meanM)
	seedSize := 2*meanM + 2
	if seedSize > n {
		seedSize = n
	}
	for i := 0; i < seedSize; i++ {
		for j := i + 1; j < seedSize; j++ {
			b.AddEdge(int32(i), int32(j))
			targets = append(targets, int32(i), int32(j))
		}
	}
	for v := seedSize; v < n; v++ {
		m := 1 + rng.Intn(2*meanM)
		added := map[int32]bool{}
		for len(added) < m && len(added) < v {
			u := targets[rng.Intn(len(targets))]
			if u == int32(v) || added[u] {
				continue
			}
			added[u] = true
			b.AddEdge(int32(v), u)
			targets = append(targets, int32(v), u)
		}
	}
	return b.Build()
}

// PlantedPartition generates communities*size vertices in equally
// sized communities, with edge probability pIn inside a community and
// pOut across. Truth labels are returned for evaluation.
//
// Cross-community sampling is done by count rather than all-pairs, so
// large sparse instances stay O(edges).
func PlantedPartition(communities, size int, pIn, pOut float64, seed int64) (*graph.Graph, []int) {
	rng := rand.New(rand.NewSource(seed))
	n := communities * size
	truth := make([]int, n)
	for v := range truth {
		truth[v] = v / size
	}
	b := graph.NewBuilder(n)
	// Intra-community: all pairs within each (small) community.
	for c := 0; c < communities; c++ {
		base := c * size
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				if rng.Float64() < pIn {
					b.AddEdge(int32(base+i), int32(base+j))
				}
			}
		}
	}
	// Inter-community: sample the expected number of cross edges.
	crossPairs := float64(n)*float64(n-size)/2 - 0 // approx n(n-size)/2 pairs
	expected := int(pOut * crossPairs)
	for i := 0; i < expected; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if truth[u] != truth[v] {
			b.AddEdge(int32(u), int32(v))
		}
	}
	return b.Build(), truth
}

// RMAT generates a recursive-matrix (Kronecker-like) graph with 2^scale
// vertices and the requested number of edges, using partition
// probabilities a, b, c (d = 1-a-b-c). RMAT reproduces the skewed,
// community-less structure of web-scale link graphs and is the
// standard synthetic stand-in for them.
func RMAT(scale int, edges int, a, b, c float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 1 << scale
	bld := graph.NewBuilder(n)
	for i := 0; i < edges; i++ {
		u, v := 0, 0
		for bit := 0; bit < scale; bit++ {
			r := rng.Float64()
			switch {
			case r < a: // top-left
			case r < a+b: // top-right
				v |= 1 << bit
			case r < a+b+c: // bottom-left
				u |= 1 << bit
			default: // bottom-right
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		bld.AddEdge(int32(u), int32(v))
	}
	return bld.Build()
}

// Collaboration generates a coauthorship-style network: papers with
// power-law-ish author counts draw authors from a community-structured
// population with preferential author popularity, and each paper
// contributes a clique among its authors. Every community is further
// split into two or three subgroups (the "geographic groups" of the
// paper's Figure 8); most papers stay inside one subgroup, a few span
// subgroups of the same community, and a few cross communities. Each
// subgroup contains a tightly collaborating "prolific group" — a
// recurring set of ~10 coauthors — which plants a dense k-core.
//
// This matches the structure the paper relies on for GrQc/Astro/DBLP:
// many medium-density cliques, several disconnected dense cores, high
// clustering (versus the single dominant core of vote networks), and
// communities whose terrain peaks contain separate sub-peaks.
func Collaboration(authors, papers int, communities int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(authors)
	if authors == 0 {
		return b.Build()
	}
	if communities < 1 {
		communities = 1
	}
	comm := make([]int, authors)
	for a := range comm {
		comm[a] = a * communities / authors
	}
	// Subgroups: 2 or 3 per community, deterministic by community ID.
	// pools[c][s] lists the authors of community c, subgroup s, with
	// preferential duplicates appended as authors publish.
	pools := make([][][]int32, communities)
	subgroupOf := make([]int, authors)
	for c := range pools {
		pools[c] = make([][]int32, 2+c%2)
	}
	for a := 0; a < authors; a++ {
		c := comm[a]
		s := a % len(pools[c])
		subgroupOf[a] = s
		pools[c][s] = append(pools[c][s], int32(a))
	}
	// Plant the prolific group of each subgroup: a clique over its
	// first ~10 authors (the paper's "several disconnected dense
	// K-Cores" in collaboration networks).
	for c := range pools {
		for _, group := range pools[c] {
			size := 10
			if size > len(group) {
				size = len(group)
			}
			for i := 0; i < size; i++ {
				for j := i + 1; j < size; j++ {
					b.AddEdge(group[i], group[j])
				}
			}
		}
	}
	for p := 0; p < papers; p++ {
		// Author count: 2 + geometric tail, capped.
		k := 2
		for rng.Float64() < 0.35 && k < 9 {
			k++
		}
		c := rng.Intn(communities)
		s := rng.Intn(len(pools[c]))
		pool := pools[c][s]
		// 8% of papers span subgroups of the same community; 5% cross
		// communities entirely.
		r := rng.Float64()
		crossSub, crossComm := r < 0.08, r >= 0.08 && r < 0.13
		coauthors := make([]int32, 0, k)
		seen := map[int32]bool{}
		// The pool holds preferential duplicates, so distinct authors
		// can run out before k is reached; a bounded number of draw
		// attempts keeps generation total.
		for tries := 0; len(coauthors) < k && tries < 8*k; tries++ {
			var a int32
			switch {
			case crossComm && len(coauthors) == k-1:
				a = int32(rng.Intn(authors))
			case crossSub && len(coauthors) == k-1:
				other := pools[c][rng.Intn(len(pools[c]))]
				a = other[rng.Intn(len(other))]
			default:
				a = pool[rng.Intn(len(pool))]
			}
			if seen[a] {
				continue
			}
			seen[a] = true
			coauthors = append(coauthors, a)
		}
		for i := 0; i < len(coauthors); i++ {
			for j := i + 1; j < len(coauthors); j++ {
				b.AddEdge(coauthors[i], coauthors[j])
			}
		}
		// Preferential growth: coauthors of this paper get likelier to
		// appear again (append duplicates into their subgroup pool).
		for _, a := range coauthors {
			pools[comm[a]][subgroupOf[a]] = append(pools[comm[a]][subgroupOf[a]], a)
		}
	}
	return b.Build()
}

// TriadicBA generates a preferential-attachment graph with triadic
// closure: each new vertex attaches preferentially, then with
// probability closure links to a random neighbor-of-neighbor. The
// closure step adds the triangles PA lacks, matching protein-
// interaction-like networks (PPI) with moderate clustering and a
// single dominant core.
func TriadicBA(n, mPerNode int, closure float64, seed int64) *graph.Graph {
	base := BarabasiAlbertVarM(n, mPerNode, seed)
	rng := rand.New(rand.NewSource(seed + 777))
	b := graph.NewBuilder(n)
	for _, e := range base.Edges() {
		b.AddEdge(e.U, e.V)
	}
	for v := int32(0); v < int32(n); v++ {
		if rng.Float64() >= closure {
			continue
		}
		nbrs := base.Neighbors(v)
		if len(nbrs) == 0 {
			continue
		}
		u := nbrs[rng.Intn(len(nbrs))]
		nn := base.Neighbors(u)
		if len(nn) == 0 {
			continue
		}
		w := nn[rng.Intn(len(nn))]
		if w != v {
			b.AddEdge(v, w)
		}
	}
	return b.Build()
}

// scaleCount scales a Table I size by factor, clamping to a floor that
// keeps the structure meaningful.
func scaleCount(n int, factor float64, floor int) int {
	s := int(math.Round(float64(n) * factor))
	if s < floor {
		s = floor
	}
	return s
}
