// Command terrain renders the terrain visualization of a scalar graph
// end to end: load or generate a graph, compute a scalar measure,
// build the scalar tree, and write PNG / SVG / OBJ artifacts.
//
// Examples:
//
//	terrain -input graph.txt -measure kcore -out mygraph
//	terrain -dataset GrQc -scale 0.1 -measure kcore -color degree -out grqc
//	terrain -dataset Wikivote -measure ktruss -alpha 12 -out wiki
//
// The -alpha flag additionally prints the maximal α-connected
// components (the peaks) at that cut height.
package main

import (
	"flag"
	"fmt"
	"image"
	"image/png"
	"os"
	"strings"

	scalarfield "repro"
	"repro/internal/datasets"
)

func main() {
	var (
		input   = flag.String("input", "", "input graph file: SNAP edge list, .graphml, or .json; mutually exclusive with -dataset")
		dataset = flag.String("dataset", "", "synthetic Table I dataset name (GrQc, Wikivote, ...)")
		scale   = flag.Float64("scale", 0.1, "scale factor for -dataset")
		seed    = flag.Int64("seed", 42, "seed for -dataset generation")
		measure = flag.String("measure", "kcore",
			"height measure: "+strings.Join(scalarfield.Measures(), "|"))
		colorBy = flag.String("color", "", "optional second measure for terrain color (same choices)")
		out     = flag.String("out", "terrain", "output path prefix (writes <out>.png, <out>.svg, <out>.obj, <out>_treemap.png)")
		bins    = flag.Int("bins", 0, "simplification bins (0 = exact scalar values)")
		alpha   = flag.Float64("alpha", -1, "if >= 0, print maximal α-connected components at this height")
		angle   = flag.Float64("angle", 0.6, "camera rotation in radians")
		zoom    = flag.Float64("zoom", 1, "camera zoom")
		width   = flag.Int("width", 960, "image width")
		height  = flag.Int("height", 720, "image height")
	)
	flag.Parse()
	if err := run(*input, *dataset, *scale, *seed, *measure, *colorBy, *out, *bins, *alpha, *angle, *zoom, *width, *height); err != nil {
		fmt.Fprintln(os.Stderr, "terrain:", err)
		os.Exit(1)
	}
}

func run(input, dataset string, scale float64, seed int64, measure, colorBy, out string,
	bins int, alpha, angle, zoom float64, width, height int) error {

	g, err := loadGraph(input, dataset, scale, seed)
	if err != nil {
		return err
	}
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	terr, err := scalarfield.Analyze(g, measure, scalarfield.AnalyzeOptions{
		SimplifyBins: bins,
		ColorBy:      colorBy,
	})
	if err != nil {
		return err
	}
	fmt.Printf("scalar tree: %d super nodes over %d items\n", terr.Tree.Len(), terr.Tree.NumItems())

	if alpha >= 0 {
		peaks := terr.Peaks(alpha)
		fmt.Printf("%d peaks at α=%g:\n", len(peaks), alpha)
		for i, p := range peaks {
			fmt.Printf("  peak %d: top=%g items=%d\n", i+1, p.Top, p.Items)
		}
	}

	ropts := scalarfield.RenderOptions{Width: width, Height: height, Angle: angle, Zoom: zoom}
	if err := terr.RenderPNG(out+".png", ropts); err != nil {
		return err
	}
	fmt.Println("wrote", out+".png")

	svgFile, err := os.Create(out + ".svg")
	if err != nil {
		return err
	}
	defer svgFile.Close()
	if err := terr.WriteSVG(svgFile, 720); err != nil {
		return err
	}
	fmt.Println("wrote", out+".svg")

	objFile, err := os.Create(out + ".obj")
	if err != nil {
		return err
	}
	defer objFile.Close()
	if err := terr.WriteOBJ(objFile, 128, 0.3); err != nil {
		return err
	}
	fmt.Println("wrote", out+".obj")

	tm := terr.RenderTreemap(720)
	if err := writePNG(out+"_treemap.png", tm); err != nil {
		return err
	}
	fmt.Println("wrote", out+"_treemap.png")

	htmlFile, err := os.Create(out + ".html")
	if err != nil {
		return err
	}
	defer htmlFile.Close()
	if err := terr.WriteHTML(htmlFile, out); err != nil {
		return err
	}
	fmt.Println("wrote", out+".html")
	return nil
}

func writePNG(path string, img image.Image) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return png.Encode(f, img)
}

func loadGraph(input, dataset string, scale float64, seed int64) (*scalarfield.Graph, error) {
	switch {
	case input != "" && dataset != "":
		return nil, fmt.Errorf("-input and -dataset are mutually exclusive")
	case input != "":
		f, err := os.Open(input)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		switch {
		case strings.HasSuffix(input, ".graphml"):
			g, _, _, err := scalarfield.ReadGraphML(f)
			return g, err
		case strings.HasSuffix(input, ".json"):
			g, _, _, err := scalarfield.ReadJSON(f)
			return g, err
		}
		g, _, err := scalarfield.LoadEdgeList(f)
		return g, err
	case dataset != "":
		return datasets.Generate(dataset, scale, seed)
	default:
		return nil, fmt.Errorf("one of -input or -dataset is required")
	}
}
