package baselines

import (
	"image"
	"image/color"
	"math"
	"testing"
)

// No binary renders a GraphSplatting field: Splat and DrawField live
// here, beside the tests that pin them.

// Splat renders a GraphSplatting field (van Liere & de Leeuw [21]):
// each vertex contributes a Gaussian kernel at its layout position,
// and the accumulated field — returned as a res×res grid, row-major,
// normalized to [0,1] — visualizes vertex density as a continuous 2D
// field. Weights (e.g. degree or a scalar measure) modulate each
// vertex's contribution; pass nil for uniform weights.
func Splat(pos []Point, weights []float64, res int, sigma float64) []float64 {
	if res <= 0 {
		res = 128
	}
	if sigma <= 0 {
		sigma = 0.03
	}
	field := make([]float64, res*res)
	if len(pos) == 0 {
		return field
	}
	// Truncate each kernel at 3σ for speed.
	radius := int(3 * sigma * float64(res))
	if radius < 1 {
		radius = 1
	}
	inv2s2 := 1 / (2 * sigma * sigma)
	for i, p := range pos {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		cx, cy := p.X*float64(res), p.Y*float64(res)
		x0, x1 := int(cx)-radius, int(cx)+radius
		y0, y1 := int(cy)-radius, int(cy)+radius
		for y := y0; y <= y1; y++ {
			if y < 0 || y >= res {
				continue
			}
			for x := x0; x <= x1; x++ {
				if x < 0 || x >= res {
					continue
				}
				// dx, dy in layout units so sigma is resolution-free.
				dx := (float64(x) + 0.5 - cx) / float64(res)
				dy := (float64(y) + 0.5 - cy) / float64(res)
				field[y*res+x] += w * math.Exp(-(dx*dx+dy*dy)*inv2s2)
			}
		}
	}
	// Normalize the field to [0,1].
	max := 0.0
	for _, v := range field {
		if v > max {
			max = v
		}
	}
	if max > 0 {
		for i := range field {
			field[i] /= max
		}
	}
	return field
}

// DrawField renders a scalar field grid (e.g. a Splat result) as a
// grayscale-to-heat image of the given resolution.
func DrawField(field []float64, res int, colormap func(float64) color.RGBA) *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, res, res))
	for y := 0; y < res; y++ {
		for x := 0; x < res; x++ {
			img.SetRGBA(x, y, colormap(field[y*res+x]))
		}
	}
	return img
}

func TestSplatPeakNearVertices(t *testing.T) {
	pos := []Point{{0.25, 0.25}, {0.75, 0.75}}
	field := Splat(pos, nil, 64, 0.05)
	// Field maxima should be near the splat centers; corners far from
	// both should be near zero.
	at := func(x, y float64) float64 { return field[int(y*64)*64+int(x*64)] }
	if at(0.25, 0.25) < 0.9 {
		t.Errorf("field at splat center = %g, want ~1", at(0.25, 0.25))
	}
	if at(0.99, 0.01) > 0.01 {
		t.Errorf("field at far corner = %g, want ~0", at(0.99, 0.01))
	}
}

func TestSplatWeights(t *testing.T) {
	pos := []Point{{0.25, 0.5}, {0.75, 0.5}}
	field := Splat(pos, []float64{1, 3}, 64, 0.05)
	at := func(x, y float64) float64 { return field[int(y*64)*64+int(x*64)] }
	if at(0.25, 0.5) >= at(0.75, 0.5) {
		t.Errorf("weighted splat: %g vs %g, want second larger",
			at(0.25, 0.5), at(0.75, 0.5))
	}
}

func TestSplatNormalized(t *testing.T) {
	pos := []Point{{0.5, 0.5}}
	field := Splat(pos, nil, 32, 0.1)
	for _, v := range field {
		if v < 0 || v > 1 {
			t.Fatalf("field value %g outside [0,1]", v)
		}
	}
}

func TestSplatEmpty(t *testing.T) {
	field := Splat(nil, nil, 16, 0.05)
	for _, v := range field {
		if v != 0 {
			t.Fatal("empty splat should be all zeros")
		}
	}
}

func TestDrawField(t *testing.T) {
	field := Splat([]Point{{0.5, 0.5}}, nil, 32, 0.1)
	img := DrawField(field, 32, func(t float64) color.RGBA {
		v := uint8(t * 255)
		return color.RGBA{v, v, v, 255}
	})
	if img.RGBAAt(16, 16).R <= img.RGBAAt(0, 0).R {
		t.Error("field center should be brighter than corner")
	}
}
