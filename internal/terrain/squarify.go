package terrain

// Layout strategies for placing child boundaries inside a parent.
// The default binary subdivision recursively halves the weight and
// cuts along the longer axis; squarified treemapping (Bruls, Huizing,
// van Wijk) greedily builds rows to keep every cell's aspect ratio
// near 1; strip layout slices the parent into proportional strips
// along its longer axis. The strategies trade layout cost against
// boundary readability — squat cells make peaks easier to click and
// their walls less sliver-like — which BenchmarkAblationLayoutStrategy
// quantifies together with AspectStats.

// Strategy selects the child-placement algorithm.
type Strategy int

const (
	// StrategyBinary is the default recursive binary subdivision.
	StrategyBinary Strategy = iota
	// StrategySquarified uses the squarified-treemap row algorithm.
	StrategySquarified
	// StrategyStrip slices proportional strips along the longer axis.
	StrategyStrip
)

// partitionWith subdivides r into len(shares) cells with areas
// proportional to shares under the chosen strategy. The result is
// parallel to shares.
func partitionWith(r Rect, shares []float64, strategy Strategy) []Rect {
	switch strategy {
	case StrategySquarified:
		return squarify(r, shares)
	case StrategyStrip:
		return strips(r, shares)
	default:
		return partition(r, shares)
	}
}

// strips cuts r into consecutive proportional strips along its longer
// axis.
func strips(r Rect, shares []float64) []Rect {
	out := make([]Rect, len(shares))
	spans := splitSpan(0, 1, shares, 0)
	for i, sp := range spans {
		if r.W() >= r.H() {
			out[i] = Rect{r.X0 + sp[0]*r.W(), r.Y0, r.X0 + sp[1]*r.W(), r.Y1}
		} else {
			out[i] = Rect{r.X0, r.Y0 + sp[0]*r.H(), r.X1, r.Y0 + sp[1]*r.H()}
		}
	}
	return out
}

// squarify implements the squarified-treemap algorithm: cells are laid
// out in rows along the shorter side of the remaining rectangle, and a
// row is closed as soon as adding the next cell would worsen the row's
// worst aspect ratio. Input order is preserved (the caller already
// sorts children by size, which is the order the algorithm expects for
// best results).
func squarify(r Rect, shares []float64) []Rect {
	out := make([]Rect, len(shares))
	total := 0.0
	for _, s := range shares {
		total += s
	}
	if total == 0 {
		return partition(r, shares) // fall back: binary handles all-zero
	}
	// Convert shares to absolute areas within r.
	areas := make([]float64, len(shares))
	for i, s := range shares {
		areas[i] = s / total * r.Area()
	}

	remaining := r
	i := 0
	for i < len(areas) {
		// Zero-area items degenerate to a point at the remaining
		// rectangle's corner (the paper's "boundaries degenerate to be
		// points").
		if areas[i] == 0 {
			out[i] = Rect{remaining.X0, remaining.Y0, remaining.X0, remaining.Y0}
			i++
			continue
		}
		// Grow a row greedily while the worst aspect ratio improves.
		side := minf(remaining.W(), remaining.H())
		rowEnd := i + 1
		rowSum := areas[i]
		best := rowWorst(areas[i:rowEnd], rowSum, side)
		for rowEnd < len(areas) && areas[rowEnd] > 0 {
			nextSum := rowSum + areas[rowEnd]
			next := rowWorst(areas[i:rowEnd+1], nextSum, side)
			if next > best {
				break
			}
			best, rowSum, rowEnd = next, nextSum, rowEnd+1
		}
		remaining = placeRow(remaining, areas[i:rowEnd], rowSum, out[i:rowEnd])
		i = rowEnd
	}
	return out
}

// rowWorst computes the worst aspect ratio of a row with the given
// areas laid along a side of the given length.
func rowWorst(areas []float64, rowSum, side float64) float64 {
	if rowSum == 0 || side == 0 {
		return 1e18
	}
	thickness := rowSum / side
	worst := 1.0
	for _, a := range areas {
		if a == 0 {
			continue
		}
		length := a / thickness
		ar := length / thickness
		if ar < 1 {
			ar = 1 / ar
		}
		if ar > worst {
			worst = ar
		}
	}
	return worst
}

// placeRow lays the row along the shorter side of remaining, filling
// out, and returns the rectangle left over.
func placeRow(remaining Rect, areas []float64, rowSum float64, out []Rect) Rect {
	if remaining.W() >= remaining.H() {
		// Row is a vertical slice on the left of width rowSum/H.
		h := remaining.H()
		w := rowSum / h
		y := remaining.Y0
		for i, a := range areas {
			cellH := 0.0
			if rowSum > 0 {
				cellH = a / rowSum * h
			}
			out[i] = Rect{remaining.X0, y, remaining.X0 + w, y + cellH}
			y += cellH
		}
		return Rect{remaining.X0 + w, remaining.Y0, remaining.X1, remaining.Y1}
	}
	// Row is a horizontal slice on the top of height rowSum/W.
	w := remaining.W()
	h := rowSum / w
	x := remaining.X0
	for i, a := range areas {
		cellW := 0.0
		if rowSum > 0 {
			cellW = a / rowSum * w
		}
		out[i] = Rect{x, remaining.Y0, x + cellW, remaining.Y0 + h}
		x += cellW
	}
	return Rect{remaining.X0, remaining.Y0 + h, remaining.X1, remaining.Y1}
}

// AspectStats reports the mean and worst aspect ratio over all
// boundaries with positive area — the readability metric the layout
// strategies trade off.
func (l *Layout) AspectStats() (mean, worst float64) {
	count := 0
	for _, r := range l.Rects() {
		if r.W() <= 0 || r.H() <= 0 {
			continue
		}
		ar := r.W() / r.H()
		if ar < 1 {
			ar = 1 / ar
		}
		mean += ar
		count++
		if ar > worst {
			worst = ar
		}
	}
	if count > 0 {
		mean /= float64(count)
	}
	return mean, worst
}
