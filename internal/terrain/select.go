package terrain

import "sort"

// Selection support for the paper's "Linked-2D-Displays" interaction
// (Section II-E): the user selects a region of the terrain and a
// callback visualizes the underlying subgraph with another method
// (e.g. a spring layout of the selected vertices, as in Figure 6(c)).
// These functions map layout-space geometry back to super nodes and
// underlying items.

// NodeAtPoint returns the deepest super node whose boundary contains
// the layout-space point (x, y), or -1 if the point lies outside all
// boundaries. Depth follows nesting: children are checked after (and
// override) their ancestors.
func (l *Layout) NodeAtPoint(x, y float64) int32 {
	best := int32(-1)
	// Node IDs are created parent-first, so the largest matching ID
	// is not necessarily the deepest; track by nesting depth instead.
	bestDepth := -1
	depth := l.depths()
	for s, r := range l.Rects() {
		if r.Contains(x, y) && depth[s] > bestDepth {
			best, bestDepth = int32(s), depth[s]
		}
	}
	return best
}

// ItemsInRect returns the underlying item IDs (vertices or edges) of
// every super node whose *exposed* terrain area intersects the given
// layout-space rectangle — the selection a user sweeps on screen. A
// node's own members live on its plateau (its boundary minus its
// children's boundaries), so an ancestor whose visible floor is not
// touched does not leak its members into the selection. Items are
// returned sorted and deduplicated.
func (l *Layout) ItemsInRect(sel Rect) []int32 {
	rects := l.Rects()
	seen := map[int32]bool{}
	for s, r := range rects {
		clipped, ok := intersect(r, sel)
		if !ok {
			continue
		}
		// Exposed check: the clipped selection must not be fully
		// covered by this node's children boundaries.
		covered := 0.0
		for _, c := range l.ST.Children(int32(s)) {
			if cc, ok := intersect(rects[c], clipped); ok {
				covered += cc.Area()
			}
		}
		if clipped.Area()-covered > 1e-12 {
			for _, item := range l.ST.Members(int32(s)) {
				seen[item] = true
			}
		}
	}
	items := make([]int32, 0, len(seen))
	for item := range seen {
		items = append(items, item)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	return items
}

// intersect returns the intersection of two rectangles and whether it
// is non-empty.
func intersect(a, b Rect) (Rect, bool) {
	r := Rect{
		X0: maxf(a.X0, b.X0), Y0: maxf(a.Y0, b.Y0),
		X1: minf(a.X1, b.X1), Y1: minf(a.Y1, b.Y1),
	}
	return r, r.X0 < r.X1 && r.Y0 < r.Y1
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// PeakAtPoint returns the peakα containing the layout-space point at
// the given cut height, or nil if the point is not inside any peak at
// that α — the click-on-a-peak interaction of Figure 1(a).
func (l *Layout) PeakAtPoint(x, y, alpha float64) *Peak {
	for _, p := range l.PeaksAt(alpha) {
		if p.Bounds.Contains(x, y) {
			peak := p
			return &peak
		}
	}
	return nil
}

// depths computes each super node's nesting depth.
func (l *Layout) depths() []int {
	st := l.ST
	depth := make([]int, st.Len())
	for s := 0; s < st.Len(); s++ {
		d := 0
		for p := st.Parent[s]; p >= 0; p = st.Parent[p] {
			d++
		}
		depth[s] = d
	}
	return depth
}
