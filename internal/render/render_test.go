package render

import (
	"bytes"
	"image/color"
	"image/png"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/terrain"
)

func testLayout() (*terrain.Layout, *core.SuperTree) {
	b := graph.NewBuilder(7)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	b.AddEdge(2, 5)
	b.AddEdge(5, 6)
	g := b.Build()
	st := core.VertexSuperTree(core.MustVertexField(g, []float64{5, 4, 1, 3, 6, 2, 7}))
	return terrain.NewLayout(st, terrain.LayoutOptions{}), st
}

func nodeColors(st *core.SuperTree) []color.RGBA {
	intensity := terrain.Normalize(st.Scalar)
	out := make([]color.RGBA, st.Len())
	for s := range out {
		out[s] = terrain.Colormap(intensity[s])
	}
	return out
}

func TestTerrainPNGProducesImage(t *testing.T) {
	l, st := testLayout()
	hm := l.Rasterize(96, 96)
	img := TerrainPNG(hm, nodeColors(st), Options{Width: 320, Height: 240})
	if img.Bounds().Dx() != 320 || img.Bounds().Dy() != 240 {
		t.Fatalf("image dims %v", img.Bounds())
	}
	// The render must have painted something besides background.
	bg := Options{}
	bg.fill()
	painted := 0
	for y := 0; y < 240; y++ {
		for x := 0; x < 320; x++ {
			if img.RGBAAt(x, y) != bg.Background {
				painted++
			}
		}
	}
	if painted < 1000 {
		t.Errorf("only %d non-background pixels; terrain missing", painted)
	}
}

func TestTerrainPNGRotationChangesImage(t *testing.T) {
	l, st := testLayout()
	hm := l.Rasterize(64, 64)
	a := TerrainPNG(hm, nodeColors(st), Options{Width: 200, Height: 160, Angle: 0.4})
	b := TerrainPNG(hm, nodeColors(st), Options{Width: 200, Height: 160, Angle: 1.2})
	if bytes.Equal(a.Pix, b.Pix) {
		t.Error("rotating the camera produced an identical image")
	}
}

func TestTerrainPNGZoom(t *testing.T) {
	l, st := testLayout()
	hm := l.Rasterize(64, 64)
	a := TerrainPNG(hm, nodeColors(st), Options{Width: 200, Height: 160, Zoom: 1})
	b := TerrainPNG(hm, nodeColors(st), Options{Width: 200, Height: 160, Zoom: 2})
	if bytes.Equal(a.Pix, b.Pix) {
		t.Error("zooming produced an identical image")
	}
}

func TestTerrainPNGDeterministic(t *testing.T) {
	l, st := testLayout()
	hm := l.Rasterize(64, 64)
	a := TerrainPNG(hm, nodeColors(st), Options{Width: 200, Height: 160})
	b := TerrainPNG(hm, nodeColors(st), Options{Width: 200, Height: 160})
	if !bytes.Equal(a.Pix, b.Pix) {
		t.Error("same inputs rendered differently")
	}
}

func TestTreemapPNG(t *testing.T) {
	l, st := testLayout()
	hm := l.Rasterize(64, 64)
	img := TreemapPNG(hm, nodeColors(st), 128, 128)
	if img.Bounds().Dx() != 128 {
		t.Fatalf("treemap dims %v", img.Bounds())
	}
	// Defaults kick in for non-positive sizes.
	img2 := TreemapPNG(hm, nodeColors(st), 0, 0)
	if img2.Bounds().Dx() != 720 {
		t.Errorf("default treemap width = %d, want 720", img2.Bounds().Dx())
	}
}

func TestEncodePNGRoundTrip(t *testing.T) {
	l, st := testLayout()
	hm := l.Rasterize(32, 32)
	img := TerrainPNG(hm, nodeColors(st), Options{Width: 100, Height: 80})
	var buf bytes.Buffer
	if err := EncodePNG(&buf, img); err != nil {
		t.Fatal(err)
	}
	decoded, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Bounds().Dx() != 100 {
		t.Errorf("decoded width %d", decoded.Bounds().Dx())
	}
}

func TestWritePNGAndSVGFiles(t *testing.T) {
	dir := t.TempDir()
	l, st := testLayout()
	hm := l.Rasterize(32, 32)
	img := TerrainPNG(hm, nodeColors(st), Options{Width: 64, Height: 64})
	if err := WritePNG(dir+"/t.png", img); err != nil {
		t.Fatal(err)
	}
	if err := WriteBoundarySVG(dir+"/t.svg", l, nodeColors(st), 400); err != nil {
		t.Fatal(err)
	}
}

func TestBoundarySVGStructure(t *testing.T) {
	l, st := testLayout()
	var sb strings.Builder
	if err := BoundarySVG(&sb, l, nodeColors(st), 500); err != nil {
		t.Fatal(err)
	}
	svg := sb.String()
	if !strings.HasPrefix(svg, "<svg") || !strings.Contains(svg, "</svg>") {
		t.Error("malformed SVG envelope")
	}
	// One rect per super node plus the background rect.
	if got := strings.Count(svg, "<rect"); got != st.Len()+1 {
		t.Errorf("%d rects, want %d", got, st.Len()+1)
	}
}

func TestTerrainOBJStructure(t *testing.T) {
	l, _ := testLayout()
	hm := l.Rasterize(8, 8)
	var sb strings.Builder
	if err := TerrainOBJ(&sb, hm, 0.3); err != nil {
		t.Fatal(err)
	}
	obj := sb.String()
	nV := strings.Count(obj, "\nv ") + boolToInt(strings.HasPrefix(obj, "v "))
	if nV != 8*8*4 {
		t.Errorf("OBJ has %d vertices, want %d", nV, 8*8*4)
	}
	if !strings.Contains(obj, "\nf ") {
		t.Error("OBJ has no faces")
	}
	// Faces reference valid vertex indexes (spot check: no index 0).
	if strings.Contains(obj, "f 0 ") {
		t.Error("OBJ face references vertex 0 (OBJ is 1-indexed)")
	}
}

func TestTerrainOBJFlatHeightmap(t *testing.T) {
	// Constant heights → no wall faces beyond the top quads.
	g := graph.NewBuilder(3).Build()
	st := core.VertexSuperTree(core.MustVertexField(g, []float64{2, 2, 2}))
	l := terrain.NewLayout(st, terrain.LayoutOptions{})
	hm := l.Rasterize(4, 4)
	// Overwrite to constant to force zero walls.
	for i := range hm.Height {
		hm.Height[i] = 1
	}
	var sb strings.Builder
	if err := TerrainOBJ(&sb, hm, 0.3); err != nil {
		t.Fatal(err)
	}
	faces := strings.Count(sb.String(), "\nf ")
	if faces != 16 {
		t.Errorf("flat terrain has %d faces, want 16 tops only", faces)
	}
}

func TestScaleClamps(t *testing.T) {
	c := scale(color.RGBA{200, 200, 200, 255}, 2)
	if c.R != 255 {
		t.Errorf("scale should clamp at 255, got %d", c.R)
	}
	if c.A != 255 {
		t.Errorf("alpha must be preserved, got %d", c.A)
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestTerrainHTMLSelfContained(t *testing.T) {
	l, st := testLayout()
	var buf bytes.Buffer
	if err := TerrainHTML(&buf, l, nodeColors(st), "test terrain"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<!doctype html", "test terrain", "const DATA", "project(", "addEventListener"} {
		if !strings.Contains(out, want) {
			t.Fatalf("HTML export missing %q", want)
		}
	}
	// The embedded JSON must mention every boundary.
	if got := strings.Count(out, `"X0"`); got != st.Len() {
		t.Fatalf("HTML embeds %d boundaries, want %d", got, st.Len())
	}
}

func TestTerrainHTMLRejectsColorMismatch(t *testing.T) {
	l, _ := testLayout()
	var buf bytes.Buffer
	if err := TerrainHTML(&buf, l, nil, "x"); err == nil {
		t.Fatal("want error for missing colors")
	}
}

func TestAnnotatedBoundarySVG(t *testing.T) {
	l, st := testLayout()
	var buf bytes.Buffer
	if err := AnnotatedBoundarySVG(&buf, l, nodeColors(st), 400, 3, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasSuffix(out, "</svg>\n") {
		t.Fatal("annotated SVG not closed")
	}
	if strings.Count(out, "</svg>") != 1 {
		t.Fatal("annotated SVG has duplicate closing tags")
	}
	for _, want := range []string{">K1<", ">K2<", "items</text>"} {
		if !strings.Contains(out, want) {
			t.Fatalf("annotated SVG missing %q", want)
		}
	}
	// topK=1 labels exactly one peak.
	buf.Reset()
	if err := AnnotatedBoundarySVG(&buf, l, nodeColors(st), 400, 3, 1); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), ">K2<") {
		t.Fatal("topK=1 labeled a second peak")
	}
}
