package scalarfield

// One benchmark per table and figure of the paper's evaluation
// section, as indexed in DESIGN.md §3. Run with:
//
//	go test -bench=. -benchmem
//
// Benches use scaled-down synthetic stand-ins (see internal/datasets)
// so the whole suite completes in minutes; cmd/experiments runs the
// same pipelines at larger scales and prints paper-style rows.

import (
	"image/color"
	"sync"
	"testing"

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
	"repro/internal/userstudy"
)

// benchScale keeps every benchmark input small enough for quick runs.
const benchScale = 0.02

var (
	benchGraphs   = map[string]*graph.Graph{}
	benchGraphsMu sync.Mutex
)

func benchGraph(b *testing.B, name string) *graph.Graph {
	b.Helper()
	benchGraphsMu.Lock()
	defer benchGraphsMu.Unlock()
	if g, ok := benchGraphs[name]; ok {
		return g
	}
	g, err := datasets.Generate(name, benchScale, 42)
	if err != nil {
		b.Fatal(err)
	}
	benchGraphs[name] = g
	return g
}

// BenchmarkTable1DatasetGen regenerates the Table I dataset stand-ins.
func BenchmarkTable1DatasetGen(b *testing.B) {
	for _, spec := range datasets.TableI {
		b.Run(spec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				datasets.GenerateSpec(spec, benchScale, 42)
			}
		})
	}
}

// BenchmarkTable2VertexTree measures tc for KC(v) rows of Table II:
// Algorithm 1 + Algorithm 2.
func BenchmarkTable2VertexTree(b *testing.B) {
	for _, name := range []string{"GrQc", "Wikivote", "Wikipedia", "Cit-Patent"} {
		g := benchGraph(b, name)
		f := core.MustVertexField(g, measures.CoreNumbersFloat(g))
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.VertexSuperTree(f)
			}
		})
	}
}

// BenchmarkTable2VertexTreeParallel times the sweep drivers on the
// Table II vertex rows: "parallel" is the package-level default (which
// takes the linear-time counting path on these integer K-core fields),
// and "pooled" additionally reuses all sweep state through a
// core.TreeBuilder — run with -benchmem to see its allocs/op collapse
// to O(1). The sort ablations live in internal/core
// (BenchmarkAblationSweepOrder, BenchmarkAblationCountingSort).
func BenchmarkTable2VertexTreeParallel(b *testing.B) {
	for _, name := range []string{"Wikipedia", "Cit-Patent"} {
		g := benchGraph(b, name)
		f := core.MustVertexField(g, measures.CoreNumbersFloat(g))
		b.Run(name+"/parallel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.BuildVertexTree(f)
			}
		})
		b.Run(name+"/pooled", func(b *testing.B) {
			var tb core.TreeBuilder
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tb.BuildVertexTree(f)
			}
		})
	}
}

// BenchmarkTable2EdgeTreeOptimized measures tc for KT(e) rows:
// Algorithm 3 + Algorithm 2.
func BenchmarkTable2EdgeTreeOptimized(b *testing.B) {
	for _, name := range []string{"GrQc", "Wikivote"} {
		g := benchGraph(b, name)
		f := core.MustEdgeField(g, measures.TrussNumbersFloat(g))
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.EdgeSuperTree(f)
			}
		})
	}
}

// BenchmarkTable2EdgeTreeNaive measures te: the dual-graph method the
// paper reports as up to 300× slower. Compare with the Optimized
// variant above — the gap is Table II's headline.
func BenchmarkTable2EdgeTreeNaive(b *testing.B) {
	for _, name := range []string{"GrQc", "Wikivote"} {
		g := benchGraph(b, name)
		f := core.MustEdgeField(g, measures.TrussNumbersFloat(g))
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Postprocess(core.BuildEdgeTreeNaive(f))
			}
		})
	}
}

// BenchmarkTable2Render measures tv: layout, rasterization, and
// painter's-algorithm rendering.
func BenchmarkTable2Render(b *testing.B) {
	g := benchGraph(b, "GrQc")
	st := core.VertexSuperTree(core.MustVertexField(g, measures.CoreNumbersFloat(g)))
	colors := make([]color.RGBA, st.Len())
	for s, t := range terrain.Normalize(st.Scalar) {
		colors[s] = terrain.Colormap(t)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lay := terrain.NewLayout(st, terrain.LayoutOptions{})
		hm := lay.Rasterize(192, 192)
		render.TerrainPNG(hm, colors, render.Options{Width: 640, Height: 480})
	}
}

// BenchmarkTable3Roles measures community+role detection on the Amazon
// stand-in (Table III's inputs).
func BenchmarkTable3Roles(b *testing.B) {
	g := benchGraph(b, "Amazon")
	for i := 0; i < b.N; i++ {
		community.DetectRoles(g)
	}
}

// BenchmarkTable4UserStudyTask1 runs the simulated study cell that
// fills one row of Table IV.
func BenchmarkTable4UserStudyTask1(b *testing.B) {
	g := benchGraph(b, "GrQc")
	for i := 0; i < b.N; i++ {
		if _, err := userstudy.Simulate(g, userstudy.ToolTerrain, userstudy.Task1DensestCore, 10, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5UserStudyTask2 fills one row of Table V.
func BenchmarkTable5UserStudyTask2(b *testing.B) {
	g := benchGraph(b, "PPI")
	for i := 0; i < b.N; i++ {
		if _, err := userstudy.Simulate(g, userstudy.ToolLaNetVi, userstudy.Task2SecondCore, 10, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable6UserStudyTask3 fills Table VI (includes a sampled
// betweenness computation per call).
func BenchmarkTable6UserStudyTask3(b *testing.B) {
	g := benchGraph(b, "Astro")
	for i := 0; i < b.N; i++ {
		if _, err := userstudy.Simulate(g, userstudy.ToolTerrain, userstudy.Task3Correlation, 10, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2PaperExample runs the Figure 2 pipeline: tree build,
// postprocess, and α-component extraction on the 9-vertex example.
func BenchmarkFig2PaperExample(b *testing.B) {
	bd := graph.NewBuilder(9)
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {2, 4}, {0, 4}, {3, 5}, {4, 6}, {6, 5}, {6, 7}, {7, 8}} {
		bd.AddEdge(e[0], e[1])
	}
	f := core.MustVertexField(bd.Build(), []float64{5, 4, 3, 4.5, 3.5, 2.6, 2, 1.5, 1})
	for i := 0; i < b.N; i++ {
		st := core.VertexSuperTree(f)
		st.ComponentsAt(2.5)
		st.ComponentsAt(2)
	}
}

// BenchmarkFig4LayoutAndRender measures the Figure 4 construction:
// 2D nested layout plus terrain rendering from two angles.
func BenchmarkFig4LayoutAndRender(b *testing.B) {
	bd := graph.NewBuilder(9)
	for _, e := range [][2]int32{{8, 7}, {7, 6}, {6, 0}, {0, 1}, {6, 2}, {2, 3}, {3, 4}, {0, 5}} {
		bd.AddEdge(e[0], e[1])
	}
	st := core.VertexSuperTree(core.MustVertexField(bd.Build(), []float64{5, 6, 4, 5.5, 7, 6.5, 3, 2, 1}))
	colors := make([]color.RGBA, st.Len())
	for s, t := range terrain.Normalize(st.Scalar) {
		colors[s] = terrain.Colormap(t)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lay := terrain.NewLayout(st, terrain.LayoutOptions{})
		hm := lay.Rasterize(128, 128)
		render.TerrainPNG(hm, colors, render.Options{Angle: 0.5, Width: 480, Height: 360})
		render.TerrainPNG(hm, colors, render.Options{Angle: 1.6, Width: 480, Height: 360})
	}
}

// BenchmarkFig5TreemapVsTerrain renders both Figure 5 views of GrQc.
func BenchmarkFig5TreemapVsTerrain(b *testing.B) {
	g := benchGraph(b, "GrQc")
	st := core.VertexSuperTree(core.MustVertexField(g, measures.CoreNumbersFloat(g)))
	colors := make([]color.RGBA, st.Len())
	for s, t := range terrain.Normalize(st.Scalar) {
		colors[s] = terrain.Colormap(t)
	}
	lay := terrain.NewLayout(st, terrain.LayoutOptions{})
	hm := lay.Rasterize(192, 192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		render.TreemapPNG(hm, colors, 480, 480)
		render.TerrainPNG(hm, colors, render.Options{Width: 480, Height: 360})
	}
}

// BenchmarkFig6Baselines measures each comparison visualization of
// Figure 6 on the GrQc stand-in.
func BenchmarkFig6Baselines(b *testing.B) {
	g := benchGraph(b, "GrQc")
	b.Run("SpringLayout", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baselines.SpringLayout(g, baselines.SpringOptions{Seed: 1, Iterations: 30})
		}
	})
	b.Run("LaNetVi", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baselines.LaNetVi(g, 1)
		}
	})
	b.Run("OpenOrd", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baselines.OpenOrdLayout(g, baselines.OpenOrdOptions{Seed: 1})
		}
	})
	b.Run("CSVPlot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baselines.NewCSVPlot(g)
		}
	})
	b.Run("KCoreTerrain", func(b *testing.B) {
		kc := measures.CoreNumbersFloat(g)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			core.VertexSuperTree(core.MustVertexField(g, kc))
		}
	})
}

// BenchmarkFig7LargeGraphs runs the full K-core + K-truss pipeline on
// the (scaled) Wikipedia and Cit-Patent stand-ins.
func BenchmarkFig7LargeGraphs(b *testing.B) {
	for _, name := range []string{"Wikipedia", "Cit-Patent"} {
		g := benchGraph(b, name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kc := measures.CoreNumbersFloat(g)
				core.VertexSuperTree(core.MustVertexField(g, kc))
			}
		})
	}
}

// BenchmarkFig8Communities measures community detection plus the
// community-score terrain of Figure 8.
func BenchmarkFig8Communities(b *testing.B) {
	g := benchGraph(b, "DBLP")
	lc, _ := graph.LargestComponent(g)
	for i := 0; i < b.N; i++ {
		model := community.Detect(lc, 4, community.Options{Seed: 1, Iterations: 5})
		core.VertexSuperTree(core.MustVertexField(lc, model.Scores(0)))
	}
}

// BenchmarkFig9RoleTerrain measures the role-colored community terrain
// of Figure 9.
func BenchmarkFig9RoleTerrain(b *testing.B) {
	g := benchGraph(b, "Amazon")
	lc, _ := graph.LargestComponent(g)
	model := community.Detect(lc, 4, community.Options{Seed: 1, Iterations: 3})
	scores := model.Scores(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roles := community.DetectRoles(lc)
		st := core.VertexSuperTree(core.MustVertexField(lc, scores))
		cats := make([]int, lc.NumVertices())
		for v, r := range roles.Dominant {
			cats[v] = int(r)
		}
		terrain.NodeCategorical(st, cats)
	}
}

// BenchmarkFig10Correlation measures the Section III-C pipeline:
// degree + sampled betweenness + LCI/GCI + outlier terrain.
func BenchmarkFig10Correlation(b *testing.B) {
	g := benchGraph(b, "Astro")
	for i := 0; i < b.N; i++ {
		deg := measures.DegreeCentrality(g)
		btw := measures.ApproxBetweennessCentrality(g, 128, 1)
		lci, err := correlation.LCI(g, deg, btw, correlation.Options{})
		if err != nil {
			b.Fatal(err)
		}
		core.VertexSuperTree(core.MustVertexField(g, correlation.OutlierScores(lci)))
	}
}

// BenchmarkFig11QueryResult measures the Section III-D pipeline:
// NN-graph construction plus attribute terrains.
func BenchmarkFig11QueryResult(b *testing.B) {
	tab := nngraph.PlantTable(60, 1)
	for i := 0; i < b.N; i++ {
		g, err := nngraph.Build(tab, nngraph.Options{K: 4})
		if err != nil {
			b.Fatal(err)
		}
		core.VertexSuperTree(core.MustVertexField(g, tab.Column(0)))
		core.VertexSuperTree(core.MustVertexField(g, tab.Column(1)))
	}
}
