// Package contour rounds out the paper's level-set view of scalar
// graphs (Section II-B relates maximal α-connected components to level
// sets and contour trees [15]). It adds the two classical companions
// of the superlevel scalar tree:
//
//   - the split tree (SublevelTree): the same merge-tree construction
//     run on sublevel sets {v : f(v) <= α}, which surfaces basins the
//     way the scalar tree surfaces peaks; and
//   - the contour spectrum (Bajaj, Pascucci, Schikore [27]): the
//     component-count curve B0(α) and the survivor-count curve |{x :
//     f(x) >= α}| as explicit step functions, which tell an analyst at
//     which α a terrain splits and how fast peaks shed members.
//
// Both reuse the core package's Algorithm 1 + Algorithm 2 machinery,
// so every structural guarantee proved there carries over.
package contour

import (
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
)

// SublevelTree is the split tree of a vertex scalar field: its
// subtrees are the maximal sublevel components, i.e. maximal connected
// subgraphs in which every vertex value is <= α and every incident
// outside vertex has value > α. It is computed as the scalar tree of
// the negated field, so the paper's Theorems 1-3 apply with all
// inequalities flipped.
type SublevelTree struct {
	st *core.SuperTree
}

// NewSublevelTree builds the split tree of values over g.
func NewSublevelTree(g *graph.Graph, values []float64) (*SublevelTree, error) {
	neg := make([]float64, len(values))
	for i, v := range values {
		neg[i] = -v
	}
	f, err := core.NewVertexField(g, neg)
	if err != nil {
		return nil, err
	}
	return &SublevelTree{st: core.VertexSuperTree(f)}, nil
}

// Len reports the number of super nodes.
func (t *SublevelTree) Len() int { return t.st.Len() }

// Scalar returns the (un-negated) scalar value of super node s.
func (t *SublevelTree) Scalar(s int32) float64 { return -t.st.Scalar[s] }

// NodeOf maps an item to its super node.
func (t *SublevelTree) NodeOf(item int32) int32 { return t.st.NodeOf[item] }

// Parent returns s's parent super node or -1. Parents always carry a
// strictly larger scalar: walking rootward climbs out of the basin.
func (t *SublevelTree) Parent(s int32) int32 { return t.st.Parent[s] }

// ComponentsAt returns the maximal sublevel components at α: the item
// sets of all maximal connected subgraphs with every value <= α,
// ordered by smallest item ID.
func (t *SublevelTree) ComponentsAt(alpha float64) [][]int32 {
	return t.st.ComponentsAt(-alpha)
}

// Basin returns the maximal f(item)-sublevel component containing
// item: the basin the item sits in, the sublevel dual of MCC.
func (t *SublevelTree) Basin(item int32) []int32 { return t.st.MCC(item) }

// Super exposes the underlying super tree (scalars negated) for
// callers that want to reuse terrain layout on basins.
func (t *SublevelTree) Super() *core.SuperTree { return t.st }

// Validate checks the underlying tree invariants.
func (t *SublevelTree) Validate() error { return t.st.Validate() }

// Spectrum is the contour spectrum of a scalar field: two step
// functions of the threshold α sampled at every distinct scalar value.
// For α between two adjacent levels both functions are constant and
// equal to their value at the next level up, matching the >= α
// semantics of maximal α-connected components.
type Spectrum struct {
	// Levels holds the distinct scalar values in increasing order.
	Levels []float64
	// Components[i] is B0(Levels[i]): the number of maximal
	// α-connected components at α = Levels[i].
	Components []int
	// Items[i] is the number of items with scalar >= Levels[i].
	Items []int
}

// NewSpectrum computes the contour spectrum from a super scalar tree.
// Each super node roots a maximal α-component exactly for α in
// (parent's scalar, its own scalar], so B0 accumulates one interval
// per super node; survivor counts accumulate one histogram entry per
// node. core.SweepLevels ranks the super nodes by distinct scalar
// without sorting them all; each level is represented by its
// lowest-ID super node's value (which decides the sign of a zero
// level). Runs in O(nodes + levels).
func NewSpectrum(st *core.SuperTree) *Spectrum {
	n := st.Len()
	levels, idx := core.SweepLevels(st.Scalar)

	// Difference array over level indices for B0.
	diff := make([]int, len(levels)+1)
	for s := 0; s < n; s++ {
		lo := int32(0)
		if p := st.Parent[s]; p >= 0 {
			lo = idx[p] + 1
		}
		diff[lo]++
		diff[idx[s]+1]--
	}
	comps := make([]int, len(levels))
	run := 0
	for i := range levels {
		run += diff[i]
		comps[i] = run
	}

	// Histogram + suffix sum for survivor counts.
	items := make([]int, len(levels))
	for s := int32(0); s < int32(n); s++ {
		items[idx[s]] += len(st.Members(s))
	}
	for i := len(levels) - 2; i >= 0; i-- {
		items[i] += items[i+1]
	}

	return &Spectrum{Levels: levels, Components: comps, Items: items}
}

// level returns the index of the smallest level >= alpha, or
// len(Levels) when alpha exceeds every level.
func (sp *Spectrum) level(alpha float64) int {
	return sort.SearchFloat64s(sp.Levels, alpha)
}

// ComponentsAt evaluates B0(α) for an arbitrary threshold.
func (sp *Spectrum) ComponentsAt(alpha float64) int {
	i := sp.level(alpha)
	if i == len(sp.Levels) {
		return 0
	}
	return sp.Components[i]
}

// ItemsAt evaluates the survivor count |{x : f(x) >= α}|.
func (sp *Spectrum) ItemsAt(alpha float64) int {
	i := sp.level(alpha)
	if i == len(sp.Levels) {
		return 0
	}
	return sp.Items[i]
}

// MaxComponents reports the peak of the B0 curve and the level at
// which it is attained (the smallest such level on ties). A terrain
// analyst reads this as "the α that shatters the graph into the most
// pieces". Returns (0, 0) for an empty spectrum.
func (sp *Spectrum) MaxComponents() (alpha float64, count int) {
	for i, c := range sp.Components {
		if c > count {
			count = c
			alpha = sp.Levels[i]
		}
	}
	return alpha, count
}

// ElbowLevel returns the smallest level whose component count is at
// least the given fraction (0,1] of the spectrum's maximum — a simple
// automatic threshold chooser for "show me the α where the major peaks
// have separated". Returns the highest level when the spectrum is
// empty of components.
func (sp *Spectrum) ElbowLevel(fraction float64) float64 {
	_, max := sp.MaxComponents()
	if max == 0 || len(sp.Levels) == 0 {
		return 0
	}
	want := fraction * float64(max)
	for i, c := range sp.Components {
		if float64(c) >= want {
			return sp.Levels[i]
		}
	}
	return sp.Levels[len(sp.Levels)-1]
}
