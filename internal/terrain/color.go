package terrain

import (
	"image/color"
	"math"

	"repro/internal/core"
)

// Colormap maps a normalized intensity t ∈ [0, 1] to the paper's
// four-stop palette: blue (least intense) → green → yellow → red
// (most intense), with linear interpolation between stops.
func Colormap(t float64) color.RGBA {
	if math.IsNaN(t) {
		t = 0
	}
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	type stop struct {
		t       float64
		r, g, b float64
	}
	stops := [...]stop{
		{0, 40, 70, 200},       // blue
		{1. / 3, 60, 170, 80},  // green
		{2. / 3, 235, 210, 60}, // yellow
		{1, 210, 40, 40},       // red
	}
	for i := 0; i < len(stops)-1; i++ {
		a, b := stops[i], stops[i+1]
		if t <= b.t {
			f := (t - a.t) / (b.t - a.t)
			return color.RGBA{
				R: uint8(a.r + f*(b.r-a.r)),
				G: uint8(a.g + f*(b.g-a.g)),
				B: uint8(a.b + f*(b.b-a.b)),
				A: 255,
			}
		}
	}
	return color.RGBA{R: 210, G: 40, B: 40, A: 255}
}

// Normalize rescales values to [0, 1] by min-max; a constant slice
// maps to all 0.5.
func Normalize(values []float64) []float64 {
	out := make([]float64, len(values))
	if len(values) == 0 {
		return out
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == lo {
		for i := range out {
			out[i] = 0.5
		}
		return out
	}
	for i, v := range values {
		out[i] = (v - lo) / (hi - lo)
	}
	return out
}

// NodeIntensity aggregates a per-item scalar (the "second measure" of
// Section II-F used to color the terrain) into a per-super-node mean
// intensity normalized to [0, 1].
func NodeIntensity(st *core.SuperTree, itemValues []float64) []float64 {
	raw := make([]float64, st.Len())
	for s := range raw {
		members := st.Members(int32(s))
		var sum float64
		for _, item := range members {
			sum += itemValues[item]
		}
		raw[s] = sum / float64(len(members))
	}
	return Normalize(raw)
}

// NodeCategorical assigns each super node the majority category of its
// members; used to color terrains by nominal attributes such as the
// dominant role (Figure 9) or plant genus (Figure 11).
func NodeCategorical(st *core.SuperTree, itemCategory []int) []int {
	out := make([]int, st.Len())
	counts := map[int]int{}
	for s := range out {
		clear(counts)
		best, bestN := -1, -1
		for _, item := range st.Members(int32(s)) {
			c := itemCategory[item]
			counts[c]++
			if counts[c] > bestN || (counts[c] == bestN && c < best) {
				best, bestN = c, counts[c]
			}
		}
		out[s] = best
	}
	return out
}

// CategoryPalette returns a distinguishable color for small category
// indexes; matching the paper's role colors for the first three
// (green hub, blue dense, red periphery) plus extras.
func CategoryPalette(category int) color.RGBA {
	palette := [...]color.RGBA{
		{46, 160, 67, 255},   // green
		{58, 100, 220, 255},  // blue
		{214, 48, 49, 255},   // red
		{250, 177, 49, 255},  // orange
		{155, 89, 182, 255},  // purple
		{26, 188, 156, 255},  // teal
		{255, 118, 175, 255}, // pink
		{120, 120, 120, 255}, // gray
	}
	if category < 0 {
		return color.RGBA{0, 0, 0, 255}
	}
	return palette[category%len(palette)]
}
