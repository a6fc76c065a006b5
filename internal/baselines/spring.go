// Package baselines implements the visualization methods the paper
// compares against: the Fruchterman–Reingold spring layout [31] used
// for Figure 6(a)/(b) and the linked-2D drilldowns, a LaNet-vi-style
// k-core ring layout [6], an OpenOrd-style multilevel layout [26] and
// the CSV cohesion plot [1]. The user-study harness (internal/userstudy)
// scores visual-search cost against these baselines exactly as
// Section IV does against the real tools.
package baselines

import (
	"math"
	"math/rand"

	"repro/internal/graph"
)

// Point is a 2D position in layout space (roughly [0,1]²).
type Point struct {
	X, Y float64
}

// SpringOptions configures the Fruchterman–Reingold layout.
type SpringOptions struct {
	// Iterations of force simulation. Default 100.
	Iterations int
	// Seed for the deterministic random initial placement.
	Seed int64
	// RepulsionSample caps how many repulsion partners each vertex
	// considers per iteration on large graphs (0 = exact all-pairs).
	// Exact repulsion is O(|V|²) per iteration; sampling keeps large
	// inputs tractable with the same qualitative shape.
	RepulsionSample int
}

func (o *SpringOptions) fill(n int) {
	if o.Iterations <= 0 {
		o.Iterations = 100
	}
	if o.RepulsionSample == 0 && n > 3000 {
		o.RepulsionSample = 64
	}
}

// SpringLayout computes a Fruchterman–Reingold force-directed layout:
// all pairs repel with force k²/d, edges attract with d²/k, and a
// cooling temperature bounds per-step displacement. Positions are
// normalized into [0,1]² at the end.
func SpringLayout(g *graph.Graph, opts SpringOptions) []Point {
	n := g.NumVertices()
	pos := make([]Point, n)
	if n == 0 {
		return pos
	}
	opts.fill(n)
	rng := rand.New(rand.NewSource(opts.Seed))
	for i := range pos {
		pos[i] = Point{rng.Float64(), rng.Float64()}
	}
	if n == 1 {
		pos[0] = Point{0.5, 0.5}
		return pos
	}

	k := math.Sqrt(1 / float64(n)) // ideal spring length in unit area
	disp := make([]Point, n)
	temp := 0.1
	cool := math.Pow(0.01/temp, 1/float64(opts.Iterations))

	for iter := 0; iter < opts.Iterations; iter++ {
		for i := range disp {
			disp[i] = Point{}
		}
		// Repulsion.
		if opts.RepulsionSample > 0 {
			for v := 0; v < n; v++ {
				for s := 0; s < opts.RepulsionSample; s++ {
					u := rng.Intn(n)
					if u == v {
						continue
					}
					repel(pos, disp, v, u, k, float64(n)/float64(opts.RepulsionSample))
				}
			}
		} else {
			for v := 0; v < n; v++ {
				for u := v + 1; u < n; u++ {
					repel(pos, disp, v, u, k, 1)
					// repel applies symmetric displacement to v only;
					// mirror for u.
					repel(pos, disp, u, v, k, 1)
				}
			}
		}
		// Attraction along edges.
		for _, e := range g.Edges() {
			dx := pos[e.U].X - pos[e.V].X
			dy := pos[e.U].Y - pos[e.V].Y
			d := math.Hypot(dx, dy) + 1e-9
			f := d * d / k
			fx, fy := dx/d*f, dy/d*f
			disp[e.U].X -= fx
			disp[e.U].Y -= fy
			disp[e.V].X += fx
			disp[e.V].Y += fy
		}
		// Move, clamped by temperature.
		for v := 0; v < n; v++ {
			d := math.Hypot(disp[v].X, disp[v].Y)
			if d < 1e-12 {
				continue
			}
			step := math.Min(d, temp)
			pos[v].X += disp[v].X / d * step
			pos[v].Y += disp[v].Y / d * step
		}
		temp *= cool
	}
	normalize(pos)
	return pos
}

// repel adds the repulsive displacement k²/d from u onto v, weighted
// for sampling.
func repel(pos, disp []Point, v, u int, k, weight float64) {
	dx := pos[v].X - pos[u].X
	dy := pos[v].Y - pos[u].Y
	d := math.Hypot(dx, dy) + 1e-9
	f := k * k / d * weight
	disp[v].X += dx / d * f
	disp[v].Y += dy / d * f
}

// normalize rescales positions into [0.02, 0.98]² preserving aspect.
func normalize(pos []Point) {
	if len(pos) == 0 {
		return
	}
	minX, maxX := pos[0].X, pos[0].X
	minY, maxY := pos[0].Y, pos[0].Y
	for _, p := range pos {
		minX = math.Min(minX, p.X)
		maxX = math.Max(maxX, p.X)
		minY = math.Min(minY, p.Y)
		maxY = math.Max(maxY, p.Y)
	}
	spanX, spanY := maxX-minX, maxY-minY
	span := math.Max(spanX, spanY)
	if span == 0 {
		for i := range pos {
			pos[i] = Point{0.5, 0.5}
		}
		return
	}
	for i := range pos {
		pos[i].X = 0.02 + 0.96*(pos[i].X-minX)/span
		pos[i].Y = 0.02 + 0.96*(pos[i].Y-minY)/span
	}
}
