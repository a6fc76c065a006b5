package datasets

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

import "repro/internal/graph"

// Kind is the structural family a Table I dataset belongs to; it
// selects which generator produces its stand-in.
type Kind int

// The structural families of the paper's datasets.
const (
	// KindCollaboration: coauthorship networks (GrQc, Astro, DBLP) —
	// overlapping cliques, several disconnected dense cores.
	KindCollaboration Kind = iota
	// KindPreferential: vote/link/citation networks (Wikivote,
	// Wikipedia, Cit-Patent) — heavy-tailed, one dominant core.
	KindPreferential
	// KindBiological: protein interaction (PPI) — preferential with
	// triadic closure.
	KindBiological
	// KindCoPurchase: product co-purchase (Amazon) — many planted
	// communities.
	KindCoPurchase
)

// Spec describes one Table I dataset: its published size and the
// generator family of its synthetic stand-in.
type Spec struct {
	Name    string
	Nodes   int
	Edges   int
	Context string
	Kind    Kind
	// Communities used by the collaboration/co-purchase generators.
	Communities int
}

// TableI mirrors the paper's Table I.
var TableI = []Spec{
	{"GrQc", 5242, 14496, "Coauthorship in General Relativity and Quantum Cosmology", KindCollaboration, 12},
	{"Wikivote", 7115, 103689, "Who-votes-on-whom relationship between Wikipedia users", KindPreferential, 0},
	{"Wikipedia", 1815914, 34022831, "Links between Wikipedia pages", KindPreferential, 0},
	{"PPI", 4741, 15147, "Protein Protein Interaction network", KindBiological, 0},
	{"Cit-Patent", 3774768, 16518947, "Citations made by patents granted between 1975 and 1999", KindPreferential, 0},
	{"Amazon", 334863, 925872, "Co-Purchase relationship between products in Amazon", KindCoPurchase, 400},
	{"Astro", 17903, 196972, "Coauthorship between authors in Astro Physics", KindCollaboration, 20},
	{"DBLP", 27199, 66832, "Coauthorship between authors in (Database, Data Mining, Machine Learning, Information Retrieval)", KindCollaboration, 4},
}

// Lookup returns the Spec with the given name.
func Lookup(name string) (Spec, error) {
	for _, s := range TableI {
		if s.Name == name {
			return s, nil
		}
	}
	names := make([]string, len(TableI))
	for i, s := range TableI {
		names[i] = s.Name
	}
	sort.Strings(names)
	return Spec{}, fmt.Errorf("datasets: unknown dataset %q (have %v)", name, names)
}

// Generate builds the synthetic stand-in for the named Table I dataset
// at the given scale factor: 1.0 = published size, smaller factors
// shrink node counts proportionally (floored at 200 vertices, which is
// what tests and examples use to stay fast), and factors above 1 grow
// the stand-in beyond the published size — the configuration the
// checked-in perf trajectories use to stress the traversal engines.
//
// Beyond Table I, Generate accepts the dynamic "rmat<k>" family
// (k = 1..27): a recursive-matrix graph over 2^k vertices with
// 16·2^k edge samples at the Graph500 parameters, the edge count
// scaled by the scale factor. rmat20 and up produce arenas of
// hundreds of megabytes — the sizes where the copy-vs-mmap gap of the
// disk store's cold-hit path becomes visible, without shipping any
// dataset file.
func Generate(name string, scale float64, seed int64) (*graph.Graph, error) {
	if k, ok := rmatScale(name); ok {
		edges := scaleCount(16<<k, scale, 400)
		return RMAT(k, edges, 0.57, 0.19, 0.19, seed), nil
	}
	spec, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return GenerateSpec(spec, scale, seed), nil
}

// rmatScale parses a dynamic "rmat<k>" dataset name, reporting the
// log2 vertex count and whether the name is a member of the family.
func rmatScale(name string) (int, bool) {
	s, ok := strings.CutPrefix(name, "rmat")
	if !ok {
		return 0, false
	}
	k, err := strconv.Atoi(s)
	if err != nil || k < 1 || k > 27 {
		return 0, false
	}
	return k, true
}

// GenerateSpec builds the stand-in for an arbitrary Spec.
func GenerateSpec(spec Spec, scale float64, seed int64) *graph.Graph {
	if scale <= 0 {
		scale = 1
	}
	n := scaleCount(spec.Nodes, scale, 200)
	m := scaleCount(spec.Edges, scale, 400)
	switch spec.Kind {
	case KindCollaboration:
		// Papers tuned so clique edges land near the edge target:
		// mean clique size ~3 → ~3 edges/paper before dedup.
		papers := m / 3
		comms := spec.Communities
		if comms <= 0 {
			comms = 8
		}
		return Collaboration(n, papers, comms, seed)
	case KindPreferential:
		per := m / n
		if per < 1 {
			per = 1
		}
		return BarabasiAlbertVarM(n, per, seed)
	case KindBiological:
		per := m / n
		if per < 1 {
			per = 1
		}
		return TriadicBA(n, per, 0.6, seed)
	case KindCoPurchase:
		comms := spec.Communities
		if comms <= 0 {
			comms = 100
		}
		// Keep community size fixed-ish; derive count from n.
		size := n / comms
		if size < 4 {
			size = 4
			comms = n / size
		}
		pIn := 2 * float64(m) / (float64(comms) * float64(size) * float64(size-1))
		if pIn > 1 {
			pIn = 1
		}
		g, _ := PlantedPartition(comms, size, pIn, 0.2/float64(n), seed)
		return g
	}
	return ErdosRenyi(n, m, seed)
}
