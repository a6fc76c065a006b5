package query

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/contour"
	"repro/internal/core"
	"repro/internal/correlation"
)

// The batched operation vocabulary. One request carries any mix of
// these; all are resolved against a single Snapshot, so the answers
// are mutually consistent by construction.
const (
	// OpAlphaCut lists the maximal α-connected components at Alpha.
	OpAlphaCut = "alpha_cut"
	// OpPeaks lists the peakα regions at cut height Alpha, highest
	// first (Section II-E peak selection).
	OpPeaks = "peaks"
	// OpMCC returns the maximal component for Item's own scalar value
	// (Definition 2).
	OpMCC = "mcc"
	// OpComponentOf returns the maximal Alpha-component containing
	// Item (empty when Item's scalar is below Alpha).
	OpComponentOf = "component_of"
	// OpSpectrum returns the contour spectrum B0(α) curves.
	OpSpectrum = "spectrum"
	// OpLCI computes the Local Correlation Index between MeasureI and
	// MeasureJ over the snapshot's graph, returning GCI plus the
	// top-Limit outliers (most negative LCI, Section III-C).
	OpLCI = "lci"
	// OpGCI computes just the Global Correlation Index between
	// MeasureI and MeasureJ.
	OpGCI = "gci"
)

// Op is one operation of a batch. Fields are read per the operation's
// documentation; irrelevant fields are ignored.
type Op struct {
	Op    string  `json:"op"`
	Alpha float64 `json:"alpha,omitempty"`
	Item  int32   `json:"item,omitempty"`
	// MeasureI / MeasureJ name the two registered measures an lci/gci
	// operation correlates. An empty MeasureI defaults to the
	// snapshot's height measure.
	MeasureI string `json:"measure_i,omitempty"`
	MeasureJ string `json:"measure_j,omitempty"`
	// Limit caps returned item lists (alpha_cut components, mcc and
	// component_of members) or outliers (lci). 0 means the default —
	// 200 items, 10 outliers; negative means unlimited. Counts are
	// always exact regardless of truncation. A truncated item list
	// holds the component's smallest item IDs and costs about
	// O(answer), not O(component): it is selected without sorting the
	// component (core.SuperTree.AppendSubtreeItems).
	Limit int `json:"limit,omitempty"`
}

// Component is one maximal α-connected component of an alpha_cut.
type Component struct {
	// Size is the exact member count.
	Size int `json:"size"`
	// Items holds the member item IDs, truncated to the op's Limit.
	Items []int32 `json:"items"`
}

// PeakInfo is one peak of a peaks operation.
type PeakInfo = core.PeakInfo

// Outlier is one Section III-C correlation outlier: an item whose
// local correlation most opposes the global trend.
type Outlier struct {
	Item int32   `json:"item"`
	LCI  float64 `json:"lci"`
}

// OpResult is the outcome of one operation. Op always echoes the
// operation name; exactly one result group (or Error) is populated.
// A per-operation Error does not fail the batch — the other
// operations still answer from the same snapshot.
type OpResult struct {
	Op    string `json:"op"`
	Error string `json:"error,omitempty"`

	// alpha_cut
	Count      int         `json:"count,omitempty"`
	Components []Component `json:"components,omitempty"`
	// peaks
	Peaks []PeakInfo `json:"peaks,omitempty"`
	// mcc, component_of
	ItemCount int     `json:"itemCount,omitempty"`
	Items     []int32 `json:"items,omitempty"`
	// spectrum
	Spectrum *contour.Spectrum `json:"spectrum,omitempty"`
	// lci, gci
	GCI      *float64  `json:"gci,omitempty"`
	Outliers []Outlier `json:"outliers,omitempty"`
}

// Resolve answers a batch of operations against one snapshot. Every
// answer reads only the immutable snapshot (plus, for correlation
// ops, cached immutable fields), so a batch is internally consistent
// no matter what the cache does concurrently.
func (e *Engine) Resolve(snap *Snapshot, ops []Op) []OpResult {
	out := make([]OpResult, len(ops))
	for i, op := range ops {
		out[i] = e.resolveOp(snap, op)
	}
	return out
}

func (e *Engine) resolveOp(snap *Snapshot, op Op) OpResult {
	r := OpResult{Op: op.Op}
	tree := snap.Terrain.Tree
	switch op.Op {
	case OpAlphaCut:
		r.Count, r.Components = alphaCut(tree, op.Alpha, itemLimit(op.Limit))

	case OpPeaks:
		r.Peaks = tree.Peaks(op.Alpha)
		r.Count = len(r.Peaks)

	case OpMCC:
		if err := checkItem(snap, op.Item); err != nil {
			r.Error = err.Error()
			break
		}
		r.ItemCount, r.Items = subtreeItems(tree, tree.NodeOf[op.Item], itemLimit(op.Limit))

	case OpComponentOf:
		if err := checkItem(snap, op.Item); err != nil {
			r.Error = err.Error()
			break
		}
		// The super node owning the item roots a maximal α-component
		// for α in (parent's scalar, own scalar]; climbing while the
		// parent still clears α finds the maximal component at op.Alpha.
		node := tree.NodeOf[op.Item]
		if tree.Scalar[node] < op.Alpha {
			break // below the cut: empty result, not an error
		}
		for p := tree.Parent[node]; p >= 0 && tree.Scalar[p] >= op.Alpha; p = tree.Parent[node] {
			node = p
		}
		r.ItemCount, r.Items = subtreeItems(tree, node, itemLimit(op.Limit))

	case OpSpectrum:
		r.Spectrum = snap.Spectrum

	case OpLCI, OpGCI:
		lci, err := e.opLCI(snap, op)
		if err != nil {
			r.Error = err.Error()
			break
		}
		gci := 0.0
		if len(lci) > 0 {
			for _, v := range lci {
				gci += v
			}
			gci /= float64(len(lci))
		}
		r.GCI = &gci
		if op.Op == OpLCI {
			r.Outliers = topOutliers(lci, outlierLimit(op.Limit))
		}

	default:
		r.Error = fmt.Sprintf("unknown op %q", op.Op)
	}
	return r
}

// opLCI resolves the two fields of a correlation op and computes LCI
// on the shared basis.
func (e *Engine) opLCI(snap *Snapshot, op Op) ([]float64, error) {
	mi := op.MeasureI
	if mi == "" {
		mi = snap.Key.Measure
	}
	if op.MeasureJ == "" {
		return nil, fmt.Errorf("%s: measure_j is required", op.Op)
	}
	vi, ei, err := e.fieldValues(snap, mi)
	if err != nil {
		return nil, err
	}
	vj, ej, err := e.fieldValues(snap, op.MeasureJ)
	if err != nil {
		return nil, err
	}
	if ei != ej {
		return nil, fmt.Errorf("%s: measures %q and %q disagree on vertex/edge basis", op.Op, mi, op.MeasureJ)
	}
	if ei {
		return correlation.EdgeLCI(snap.Graph, vi, vj)
	}
	return correlation.LCI(snap.Graph, vi, vj, correlation.Options{})
}

func checkItem(snap *Snapshot, item int32) error {
	if n := snap.Terrain.Tree.NumItems(); item < 0 || int(item) >= n {
		return fmt.Errorf("item %d out of range [0,%d)", item, n)
	}
	return nil
}

// itemLimit maps an Op.Limit to the item-list cap: default 200,
// negative = unlimited.
func itemLimit(limit int) int {
	if limit == 0 {
		return 200
	}
	return limit
}

// outlierLimit maps an Op.Limit to the outlier cap: default 10,
// negative = unlimited.
func outlierLimit(limit int) int {
	if limit == 0 {
		return 10
	}
	return limit
}

// subtreeItems returns s's exact subtree size and its ListLen smallest
// items, ascending, in one allocation of exactly that length.
func subtreeItems(tree *core.SuperTree, s int32, limit int) (int, []int32) {
	size := tree.SubtreeSize()[s]
	return int(size), tree.AppendSubtreeItems(make([]int32, 0, core.ListLen(size, limit)), s, limit)
}

// alphaCut returns the number of maximal α-components and each one's
// exact size and ListLen smallest items, ordered by smallest item, in
// two allocations: the components, and one buffer holding every item
// list followed by the roots.
func alphaCut(tree *core.SuperTree, alpha float64, limit int) (int, []Component) {
	size := tree.SubtreeSize()
	count, total := 0, 0
	for root := range tree.ComponentRoots(alpha) {
		count++
		total += core.ListLen(size[root], limit)
	}
	buf := make([]int32, total, total+count)
	roots := buf[total:total]
	for root := range tree.ComponentRoots(alpha) {
		roots = append(roots, root)
	}
	items := tree.AppendComponents(buf[:0:total], roots, limit)
	comps := make([]Component, count)
	for i, root := range roots {
		n := core.ListLen(size[root], limit)
		comps[i] = Component{Size: int(size[root]), Items: items[:n:n]}
		items = items[n:]
	}
	// Each list is ascending and non-empty (limit is never 0 here), so
	// its first item is its component's smallest.
	slices.SortFunc(comps, func(a, b Component) int { return cmp.Compare(a.Items[0], b.Items[0]) })
	return count, comps
}

// topOutliers returns the items with the most negative LCI — the
// highest -LCI outlier score — strongest first.
func topOutliers(lci []float64, limit int) []Outlier {
	out := make([]Outlier, len(lci))
	for i, v := range lci {
		out[i] = Outlier{Item: int32(i), LCI: v}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].LCI != out[b].LCI {
			return out[a].LCI < out[b].LCI
		}
		return out[a].Item < out[b].Item
	})
	if limit >= 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}
