package render

import (
	"bufio"
	"fmt"
	"image/color"
	"io"
	"os"

	"repro/internal/terrain"
)

// BoundarySVG writes the layout's nested boundaries as an SVG: one
// rectangle per super node, drawn parents-first so children overlay,
// filled with the node color and stroked for legibility. This is the
// vector counterpart of the treemap view, convenient for papers and
// docs because it stays crisp at any zoom.
func BoundarySVG(w io.Writer, l *terrain.Layout, nodeColor []color.RGBA, size int) error {
	if size <= 0 {
		size = 720
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		size, size, size, size)
	fmt.Fprintf(bw, `<rect width="%d" height="%d" fill="#ebe9e4"/>`+"\n", size, size)
	s := float64(size)
	for node, r := range l.Rects() {
		col := color.RGBA{160, 160, 160, 255}
		if node < len(nodeColor) {
			col = nodeColor[node]
		}
		fmt.Fprintf(bw,
			`<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="#%02x%02x%02x" stroke="#333" stroke-width="0.8"><title>node %d scalar %.4g</title></rect>`+"\n",
			r.X0*s, r.Y0*s, r.W()*s, r.H()*s, col.R, col.G, col.B, node, l.ST.Scalar[node])
	}
	fmt.Fprintln(bw, `</svg>`)
	return bw.Flush()
}

// WriteBoundarySVG writes the boundary SVG to a file.
func WriteBoundarySVG(path string, l *terrain.Layout, nodeColor []color.RGBA, size int) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("render: %w", err)
	}
	defer f.Close()
	return BoundarySVG(f, l, nodeColor, size)
}

// TerrainOBJ writes the rasterized terrain as a Wavefront OBJ mesh:
// one top quad per cell, plus wall quads wherever adjacent cells
// differ in height, so any external 3D viewer reproduces the paper's
// interactive terrain. Heights are normalized so the scalar range maps
// to heightScale world units over a unit-square footprint.
func TerrainOBJ(w io.Writer, hm *terrain.Heightmap, heightScale float64) error {
	if heightScale <= 0 {
		heightScale = 0.3
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# scalar-field terrain mesh")
	lo, hi := hm.MinMax()
	rng := hi - lo
	if rng == 0 {
		rng = 1
	}
	zOf := func(h float64) float64 { return (h - lo) / rng * heightScale }
	sx := 1 / float64(hm.W)
	sy := 1 / float64(hm.H)

	// Emit 4 corner vertices per cell at the cell's height; vertices
	// are 1-indexed in OBJ.
	idx := func(x, y, corner int) int { return (y*hm.W+x)*4 + corner + 1 }
	for y := 0; y < hm.H; y++ {
		for x := 0; x < hm.W; x++ {
			z := zOf(hm.At(x, y))
			x0, y0 := float64(x)*sx, float64(y)*sy
			x1, y1 := x0+sx, y0+sy
			fmt.Fprintf(bw, "v %.5f %.5f %.5f\n", x0, z, y0)
			fmt.Fprintf(bw, "v %.5f %.5f %.5f\n", x1, z, y0)
			fmt.Fprintf(bw, "v %.5f %.5f %.5f\n", x1, z, y1)
			fmt.Fprintf(bw, "v %.5f %.5f %.5f\n", x0, z, y1)
		}
	}
	// Top faces.
	for y := 0; y < hm.H; y++ {
		for x := 0; x < hm.W; x++ {
			fmt.Fprintf(bw, "f %d %d %d %d\n", idx(x, y, 0), idx(x, y, 1), idx(x, y, 2), idx(x, y, 3))
		}
	}
	// Walls between horizontally and vertically adjacent cells of
	// different heights, stitching corner vertices of both cells.
	for y := 0; y < hm.H; y++ {
		for x := 0; x+1 < hm.W; x++ {
			if hm.At(x, y) != hm.At(x+1, y) {
				fmt.Fprintf(bw, "f %d %d %d %d\n",
					idx(x, y, 1), idx(x, y, 2), idx(x+1, y, 3), idx(x+1, y, 0))
			}
		}
	}
	for y := 0; y+1 < hm.H; y++ {
		for x := 0; x < hm.W; x++ {
			if hm.At(x, y) != hm.At(x, y+1) {
				fmt.Fprintf(bw, "f %d %d %d %d\n",
					idx(x, y, 3), idx(x, y, 2), idx(x, y+1, 1), idx(x, y+1, 0))
			}
		}
	}
	return bw.Flush()
}
