package terrain

import "fmt"

// Heightmap is a rasterized terrain: a W×H grid where each cell
// records the height of the deepest boundary covering it and the super
// node that owns it. Cell (x, y) is at index y*W + x.
type Heightmap struct {
	W, H   int
	Height []float64
	Node   []int32 // owning super node per cell, -1 outside all boundaries
}

// Rasterize paints the layout onto a w×h grid. Nodes are painted in
// creation order — parents strictly before descendants in a SuperTree
// — so the deepest (highest) boundary wins at every cell, exactly the
// "escalate each boundary to its node's height" construction of the
// paper's Figure 4.
func (l *Layout) Rasterize(w, h int) *Heightmap {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("terrain: invalid raster size %dx%d", w, h))
	}
	hm := &Heightmap{
		W: w, H: h,
		Height: make([]float64, w*h),
		Node:   make([]int32, w*h),
	}
	base := l.baseHeight()
	for i := range hm.Node {
		hm.Node[i] = -1
		hm.Height[i] = base
	}
	height := l.ST.Scalar
	for s, r := range l.Rects() {
		x0 := clampInt(int(r.X0*float64(w)), 0, w)
		x1 := clampInt(int(r.X1*float64(w)+0.9999), 0, w)
		y0 := clampInt(int(r.Y0*float64(h)), 0, h)
		y1 := clampInt(int(r.Y1*float64(h)+0.9999), 0, h)
		// Guarantee at least one cell for visible-but-tiny boundaries.
		if x1 == x0 && x0 < w {
			x1 = x0 + 1
		}
		if y1 == y0 && y0 < h {
			y1 = y0 + 1
		}
		for y := y0; y < y1; y++ {
			row := y * w
			for x := x0; x < x1; x++ {
				hm.Height[row+x] = height[s]
				hm.Node[row+x] = int32(s)
			}
		}
	}
	return hm
}

// baseHeight returns the height used for cells outside every boundary:
// slightly below the minimum scalar so root plateaus are visible.
func (l *Layout) baseHeight() float64 {
	height := l.ST.Scalar
	if len(height) == 0 {
		return 0
	}
	min, max := height[0], height[0]
	for _, v := range height {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max == min {
		return min - 1
	}
	return min - 0.05*(max-min)
}

// MinMax reports the minimum and maximum cell heights.
func (hm *Heightmap) MinMax() (lo, hi float64) {
	lo, hi = hm.Height[0], hm.Height[0]
	for _, v := range hm.Height {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// At returns the height at cell (x, y).
func (hm *Heightmap) At(x, y int) float64 { return hm.Height[y*hm.W+x] }

// NodeAt returns the owning super node at cell (x, y), or -1.
func (hm *Heightmap) NodeAt(x, y int) int32 { return hm.Node[y*hm.W+x] }

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
