// Package terrain converts a super scalar tree into the paper's
// terrain visualization (Section II-E): every tree node becomes a
// nested 2D boundary whose enclosed area is proportional to its
// subtree size, boundaries are lifted to the height of their node's
// scalar value, and walls connect neighboring boundaries. peakα
// regions — the terrain areas above a height-α cut — correspond
// one-to-one to maximal α-connected components.
//
// The package produces resolution-independent geometry (nested
// rectangles plus heights); the render package turns it into PNG, SVG,
// and OBJ artifacts.
package terrain

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
)

// Rect is an axis-aligned rectangle in layout space.
type Rect struct {
	X0, Y0, X1, Y1 float64
}

// W reports the rectangle's width.
func (r Rect) W() float64 { return r.X1 - r.X0 }

// H reports the rectangle's height.
func (r Rect) H() float64 { return r.Y1 - r.Y0 }

// Area reports the rectangle's area.
func (r Rect) Area() float64 { return r.W() * r.H() }

// Contains reports whether the point (x, y) lies inside the rectangle.
func (r Rect) Contains(x, y float64) bool {
	return x >= r.X0 && x < r.X1 && y >= r.Y0 && y < r.Y1
}

// LayoutOptions configures the nested-boundary layout.
type LayoutOptions struct {
	// Margin is the fraction of each boundary's extent kept as a rim
	// between the boundary and its children, which becomes the sloped
	// "wall" area of the rendered terrain. Defaults to 0.08.
	Margin float64
	// MinShare is the minimum fraction of the parent's span allotted
	// to any child, so tiny subtrees (whose boundaries "degenerate to
	// points" in the paper) remain visible. Defaults to 0.02.
	MinShare float64
	// Strategy selects the child-placement algorithm (binary
	// subdivision, squarified, or strips). Default StrategyBinary.
	Strategy Strategy
}

func (o *LayoutOptions) fill() {
	if o.Margin <= 0 {
		o.Margin = 0.08
	}
	if o.MinShare <= 0 {
		o.MinShare = 0.02
	}
}

// Layout is the 2D nested-boundary layout of a super tree: super
// node s's boundary is Rects()[s], children's boundaries lie fully
// inside their parent's, and the boundary is lifted to the height
// ST.Scalar[s]. The rectangles are built on the first Rects call, so a
// layout nobody draws costs nothing; a Layout is safe for concurrent
// use and must not be copied.
type Layout struct {
	ST *core.SuperTree

	opts  LayoutOptions
	once  sync.Once
	rects []Rect
}

// NewLayout returns the layout of the super tree in the unit square
// [0,1]² under opts. It records its arguments only; the geometry is
// built by the first Rects call.
func NewLayout(st *core.SuperTree, opts LayoutOptions) *Layout {
	opts.fill()
	return &Layout{ST: st, opts: opts}
}

// Rects returns every super node's boundary, building them once. Each
// root's boundary area is proportional to its subtree size; within a
// boundary, child boundaries (largest first) receive shares
// proportional to their subtree sizes, with a share for the node's own
// members left as exposed plateau. The slice is shared: callers must
// not modify it.
func (l *Layout) Rects() []Rect {
	l.once.Do(l.build)
	return l.rects
}

func (l *Layout) build() {
	st := l.ST
	if st == nil {
		return // the zero Layout has no boundaries
	}
	l.rects = make([]Rect, st.Len())
	sizes := st.SubtreeSize()
	roots := st.Roots()
	// Partition the unit square among roots by binary subdivision.
	shares := make([]float64, len(roots))
	for i, r := range roots {
		shares[i] = float64(sizes[r])
	}
	cells := partitionWith(Rect{0, 0, 1, 1}, floorShares(shares, l.opts.MinShare), l.opts.Strategy)
	for i, r := range roots {
		l.rects[r] = cells[i]
		l.layoutChildren(r, sizes)
	}
}

// layoutChildren recursively places node s's children inside its
// boundary using binary area partition, which keeps cells close to
// square instead of degenerating into thin strips.
func (l *Layout) layoutChildren(s int32, sizes []int32) {
	ch := l.ST.Children(s)
	if len(ch) == 0 {
		return
	}
	outer := l.rects[s]
	m := l.opts.Margin * minf(outer.W(), outer.H())
	inner := Rect{outer.X0 + m, outer.Y0 + m, outer.X1 - m, outer.Y1 - m}
	if inner.W() <= 0 || inner.H() <= 0 {
		// Degenerate: give children the (tiny) outer rect directly.
		inner = outer
	}
	// Order children by subtree size descending (stable by ID).
	order := make([]int32, len(ch))
	copy(order, ch)
	sort.SliceStable(order, func(a, b int) bool { return sizes[order[a]] > sizes[order[b]] })

	// Shares: children by subtree size, plus the node's own members as
	// a trailing plateau share (exposed floor of the parent).
	shares := make([]float64, len(order)+1)
	for i, c := range order {
		shares[i] = float64(sizes[c])
	}
	shares[len(order)] = float64(len(l.ST.Members(s)))

	cells := partitionWith(inner, floorShares(shares, l.opts.MinShare), l.opts.Strategy)
	for i, c := range order {
		l.rects[c] = cells[i]
		l.layoutChildren(c, sizes)
	}
}

// floorShares normalizes shares and applies a minimum so tiny subtrees
// (whose boundaries "degenerate to points" in the paper) stay visible.
func floorShares(shares []float64, minShare float64) []float64 {
	total := 0.0
	for _, s := range shares {
		total += s
	}
	out := make([]float64, len(shares))
	if total == 0 {
		for i := range out {
			out[i] = 1
		}
		return out
	}
	for i, s := range shares {
		out[i] = s / total
		if out[i] > 0 && out[i] < minShare {
			out[i] = minShare
		}
	}
	return out
}

// partition recursively subdivides r into len(shares) cells with areas
// proportional to shares: the share list is split into two runs of
// roughly equal weight and r is cut along its longer axis. The
// returned cells are parallel to shares.
func partition(r Rect, shares []float64) []Rect {
	out := make([]Rect, len(shares))
	partitionInto(r, shares, out)
	return out
}

func partitionInto(r Rect, shares []float64, out []Rect) {
	if len(shares) == 0 {
		return
	}
	if len(shares) == 1 {
		out[0] = r
		return
	}
	total := 0.0
	for _, s := range shares {
		total += s
	}
	if total == 0 {
		// All-zero run: split evenly in half by count.
		mid := len(shares) / 2
		a, b := cut(r, 0.5)
		partitionInto(a, shares[:mid], out[:mid])
		partitionInto(b, shares[mid:], out[mid:])
		return
	}
	// Find the split point closest to half the weight (at least one
	// element on each side).
	half := total / 2
	acc := 0.0
	mid := 1
	bestDiff := total
	for i := 0; i < len(shares)-1; i++ {
		acc += shares[i]
		if d := abs(acc - half); d < bestDiff {
			bestDiff = d
			mid = i + 1
		}
	}
	left := 0.0
	for _, s := range shares[:mid] {
		left += s
	}
	a, b := cut(r, left/total)
	partitionInto(a, shares[:mid], out[:mid])
	partitionInto(b, shares[mid:], out[mid:])
}

// cut splits r along its longer axis at fraction f.
func cut(r Rect, f float64) (Rect, Rect) {
	if r.W() >= r.H() {
		x := r.X0 + f*r.W()
		return Rect{r.X0, r.Y0, x, r.Y1}, Rect{x, r.Y0, r.X1, r.Y1}
	}
	y := r.Y0 + f*r.H()
	return Rect{r.X0, r.Y0, r.X1, y}, Rect{r.X0, y, r.X1, r.Y1}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// splitSpan divides [lo, hi] into len(shares) consecutive intervals
// with widths proportional to shares, each at least minShare of the
// span (zero-share slots stay empty but keep ordering).
func splitSpan(lo, hi float64, shares []float64, minShare float64) [][2]float64 {
	span := hi - lo
	total := 0.0
	for _, s := range shares {
		total += s
	}
	out := make([][2]float64, len(shares))
	if total == 0 {
		// All-zero shares: split evenly.
		w := span / float64(len(shares))
		for i := range out {
			out[i] = [2]float64{lo + float64(i)*w, lo + float64(i+1)*w}
		}
		return out
	}
	// Apply the floor, then renormalize the remainder.
	adj := make([]float64, len(shares))
	var adjTotal float64
	for i, s := range shares {
		adj[i] = s / total
		if adj[i] > 0 && adj[i] < minShare {
			adj[i] = minShare
		}
		adjTotal += adj[i]
	}
	x := lo
	for i := range adj {
		w := span * adj[i] / adjTotal
		out[i] = [2]float64{x, x + w}
		x += w
	}
	out[len(out)-1][1] = hi // absorb rounding
	return out
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Peak is a peakα of Definition 6: the terrain region within one
// boundary at cut height α, corresponding to one maximal α-connected
// component.
type Peak struct {
	// Node is the super node rooting the peak's subtree.
	Node int32
	// Bounds is the peak's boundary rectangle.
	Bounds Rect
	// Alpha is the cut height that produced the peak.
	Alpha float64
	// Top is the maximum scalar inside the peak.
	Top float64
	// Items is the number of underlying items (vertices/edges) in the
	// peak's maximal α-connected component.
	Items int
}

// PeaksAt returns the peakα regions for the cut height α, sorted by
// descending Top then descending Items, so the "highest peak" — the
// densest component in the k-core reading — comes first. They are the
// tree's own peaks (core.SuperTree.Peaks) with their boundaries.
func (l *Layout) PeaksAt(alpha float64) []Peak {
	info := l.ST.Peaks(alpha)
	if len(info) == 0 {
		return nil
	}
	rects := l.Rects()
	peaks := make([]Peak, len(info))
	for i, p := range info {
		peaks[i] = Peak{Node: p.Node, Bounds: rects[p.Node], Alpha: alpha, Top: p.Height, Items: p.Items}
	}
	return peaks
}

// Validate checks layout invariants: every child rectangle nested in
// its parent's, sibling rectangles disjoint, and all within [0,1]².
func (l *Layout) Validate() error {
	const eps = 1e-9
	st := l.ST
	rects := l.Rects()
	for s := 0; s < st.Len(); s++ {
		r := rects[s]
		if r.X0 < -eps || r.Y0 < -eps || r.X1 > 1+eps || r.Y1 > 1+eps || r.W() < -eps || r.H() < -eps {
			return fmt.Errorf("terrain: rect %d = %+v out of unit square", s, r)
		}
		if p := st.Parent[s]; p >= 0 {
			pr := rects[p]
			if r.X0 < pr.X0-eps || r.Y0 < pr.Y0-eps || r.X1 > pr.X1+eps || r.Y1 > pr.Y1+eps {
				return fmt.Errorf("terrain: rect %d = %+v escapes parent %d = %+v", s, r, p, pr)
			}
		}
	}
	// Sibling disjointness.
	for s := int32(0); s < int32(st.Len()); s++ {
		ch := st.Children(s)
		for i := 0; i < len(ch); i++ {
			for j := i + 1; j < len(ch); j++ {
				a, b := rects[ch[i]], rects[ch[j]]
				if a.X0 < b.X1-eps && b.X0 < a.X1-eps && a.Y0 < b.Y1-eps && b.Y0 < a.Y1-eps {
					return fmt.Errorf("terrain: sibling rects %d and %d overlap", ch[i], ch[j])
				}
			}
		}
	}
	return nil
}
