package baselines

import (
	"image"
	"image/color"

	"repro/internal/graph"
)

// DrawOptions configures node-link rendering.
type DrawOptions struct {
	// Size is the square image side in pixels. Default 720.
	Size int
	// NodeRadius in pixels. Default 3.
	NodeRadius int
	// EdgeColor; default light gray.
	EdgeColor color.RGBA
	// Background; default white.
	Background color.RGBA
}

func (o *DrawOptions) fill() {
	if o.Size <= 0 {
		o.Size = 720
	}
	if o.NodeRadius <= 0 {
		o.NodeRadius = 3
	}
	if o.EdgeColor == (color.RGBA{}) {
		o.EdgeColor = color.RGBA{190, 190, 190, 255}
	}
	if o.Background == (color.RGBA{}) {
		o.Background = color.RGBA{255, 255, 255, 255}
	}
}

// DrawNodeLink renders a node-link diagram: edges first, then vertices
// as filled discs colored by nodeColor (falling back to dark gray).
// This is the renderer behind the spring-layout, LaNet-vi, and
// OpenOrd comparison figures.
func DrawNodeLink(g *graph.Graph, pos []Point, nodeColor []color.RGBA, opts DrawOptions) *image.RGBA {
	opts.fill()
	img := image.NewRGBA(image.Rect(0, 0, opts.Size, opts.Size))
	for y := 0; y < opts.Size; y++ {
		for x := 0; x < opts.Size; x++ {
			img.SetRGBA(x, y, opts.Background)
		}
	}
	s := float64(opts.Size)
	for _, e := range g.Edges() {
		drawLine(img,
			int(pos[e.U].X*s), int(pos[e.U].Y*s),
			int(pos[e.V].X*s), int(pos[e.V].Y*s),
			opts.EdgeColor)
	}
	dark := color.RGBA{60, 60, 60, 255}
	for v := range pos {
		col := dark
		if v < len(nodeColor) {
			col = nodeColor[v]
		}
		drawDisc(img, int(pos[v].X*s), int(pos[v].Y*s), opts.NodeRadius, col)
	}
	return img
}

// drawLine draws a 1px Bresenham line clipped to the image bounds.
func drawLine(img *image.RGBA, x0, y0, x1, y1 int, c color.RGBA) {
	dx := absInt(x1 - x0)
	dy := -absInt(y1 - y0)
	sx, sy := 1, 1
	if x0 > x1 {
		sx = -1
	}
	if y0 > y1 {
		sy = -1
	}
	err := dx + dy
	b := img.Bounds()
	for {
		if x0 >= b.Min.X && x0 < b.Max.X && y0 >= b.Min.Y && y0 < b.Max.Y {
			img.SetRGBA(x0, y0, c)
		}
		if x0 == x1 && y0 == y1 {
			return
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x0 += sx
		}
		if e2 <= dx {
			err += dx
			y0 += sy
		}
	}
}

// drawDisc fills a disc of the given radius.
func drawDisc(img *image.RGBA, cx, cy, r int, c color.RGBA) {
	b := img.Bounds()
	for y := cy - r; y <= cy+r; y++ {
		for x := cx - r; x <= cx+r; x++ {
			if x < b.Min.X || x >= b.Max.X || y < b.Min.Y || y >= b.Max.Y {
				continue
			}
			ddx, ddy := x-cx, y-cy
			if ddx*ddx+ddy*ddy <= r*r {
				img.SetRGBA(x, y, c)
			}
		}
	}
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
