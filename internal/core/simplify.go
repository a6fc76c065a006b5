package core

import "math"

// Discretize quantizes a scalar field into the given number of bins,
// implementing the paper's terrain "Simplification" feature
// (Section II-E): similar scalar values collapse to the same value, so
// the postprocessed super tree has far fewer nodes and renders faster.
//
// The bins split the range of the finite values; each finite value
// maps to the midpoint of its bin and ±Inf map to themselves. This
// preserves order (v1 <= v2 implies q(v1) <= q(v2)), so the simplified
// tree is a coarsening of the original: every simplified component is
// a union of original components. bins must be >= 1.
func Discretize(values []float64, bins int) []float64 {
	if bins < 1 {
		panic("core: Discretize requires bins >= 1")
	}
	out := make([]float64, len(values))
	lo, hi := finiteRange(values)
	if !(lo < hi) {
		copy(out, values)
		return out
	}
	// A span wider than MaxFloat64 is binned at half scale: halving
	// keeps the order, the halved span is finite, and the doubled
	// midpoints stay below the top of the range.
	scale := 1.0
	if math.IsInf(hi-lo, 1) {
		scale = 2
	}
	lo /= scale
	width := (hi/scale - lo) / float64(bins)
	for i, v := range values {
		if math.IsInf(v, 0) {
			out[i] = v
			continue
		}
		out[i] = scale * (lo + (float64(binOf((v/scale-lo)/width, bins))+0.5)*width)
	}
	return out
}

// finiteRange returns the least and greatest finite values, or
// (+Inf, -Inf) when there are none.
func finiteRange(values []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range values {
		if !math.IsInf(v, 0) {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
	}
	return lo, hi
}

// binOf returns the bin of a value at offset t >= 0 bin widths from
// the range's low end: the top of the range lands one past the last
// bin and belongs to it, and so does a NaN or infinite t from a width
// that underflowed to zero.
func binOf(t float64, bins int) int {
	if t < float64(bins) {
		return int(t)
	}
	return bins - 1
}

// SimplifyVertexField returns a copy of f with its values discretized
// into the given number of bins.
func SimplifyVertexField(f *VertexField, bins int) *VertexField {
	return &VertexField{G: f.G, Values: Discretize(f.Values, bins)}
}

// SimplifyEdgeField returns a copy of f with its values discretized
// into the given number of bins.
func SimplifyEdgeField(f *EdgeField, bins int) *EdgeField {
	return &EdgeField{G: f.G, Values: Discretize(f.Values, bins)}
}

// DiscretizeLog quantizes positive scalar values into logarithmically
// spaced bins, which suits heavy-tailed fields such as degree or
// k-core number on scale-free graphs: linear bins would collapse the
// long tail of small values into one bin while wasting bins on the few
// huge hubs. The bins split the range of the finite positive values;
// smaller values (non-positive ones and -Inf) are clamped to the
// smallest bin and +Inf maps to itself, which preserves order.
func DiscretizeLog(values []float64, bins int) []float64 {
	if bins < 1 {
		panic("core: DiscretizeLog requires bins >= 1")
	}
	out := make([]float64, len(values))
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		if v > 0 && !math.IsInf(v, 1) {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
	}
	if !(lo < hi) {
		copy(out, values)
		return out
	}
	logLo, logHi := math.Log(lo), math.Log(hi)
	width := (logHi - logLo) / float64(bins)
	for i, v := range values {
		switch {
		case math.IsInf(v, 1):
			out[i] = v
		case v <= lo:
			out[i] = math.Exp(logLo + 0.5*width)
		default:
			out[i] = math.Exp(logLo + (float64(binOf((math.Log(v)-logLo)/width, bins))+0.5)*width)
		}
	}
	return out
}
