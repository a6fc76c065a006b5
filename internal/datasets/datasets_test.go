package datasets

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/measures"
)

func TestErdosRenyiSize(t *testing.T) {
	g := ErdosRenyi(100, 300, 1)
	if g.NumVertices() != 100 {
		t.Fatalf("V = %d", g.NumVertices())
	}
	// Dedup and self-loop removal shave a few edges off.
	if g.NumEdges() < 250 || g.NumEdges() > 300 {
		t.Errorf("E = %d, want ~300", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBarabasiAlbertSizeAndSkew(t *testing.T) {
	g := BarabasiAlbertVarM(500, 3, 2)
	if g.NumVertices() != 500 {
		t.Fatalf("V = %d", g.NumVertices())
	}
	// Each arriving vertex attaches 1 to 6 edges, 3.5 on average.
	if g.NumEdges() < 3*490 || g.NumEdges() > 4*500 {
		t.Errorf("E = %d, want ~%d", g.NumEdges(), 7*500/2)
	}
	// Degree distribution must be skewed: max degree far above mean.
	mean := 2 * float64(g.NumEdges()) / 500
	if float64(g.MaxDegree()) < 4*mean {
		t.Errorf("max degree %d not heavy-tailed (mean %.1f)", g.MaxDegree(), mean)
	}
}

func TestBarabasiAlbertConnected(t *testing.T) {
	g := BarabasiAlbertVarM(200, 2, 3)
	_, count := graph.ConnectedComponents(g)
	if count != 1 {
		t.Errorf("BA graph has %d components, want 1", count)
	}
}

func TestPlantedPartitionCommunityDensity(t *testing.T) {
	g, truth := PlantedPartition(4, 25, 0.5, 0.002, 4)
	if g.NumVertices() != 100 {
		t.Fatalf("V = %d", g.NumVertices())
	}
	intra, inter := 0, 0
	for _, e := range g.Edges() {
		if truth[e.U] == truth[e.V] {
			intra++
		} else {
			inter++
		}
	}
	if intra <= 5*inter {
		t.Errorf("intra=%d inter=%d: communities not dense enough", intra, inter)
	}
}

func TestRMATSizeAndSkew(t *testing.T) {
	g := RMAT(10, 4000, 0.57, 0.19, 0.19, 5)
	if g.NumVertices() != 1024 {
		t.Fatalf("V = %d, want 1024", g.NumVertices())
	}
	if g.NumEdges() < 2000 {
		t.Errorf("E = %d after dedup, want > 2000", g.NumEdges())
	}
	mean := 2 * float64(g.NumEdges()) / 1024
	if float64(g.MaxDegree()) < 4*mean {
		t.Errorf("RMAT max degree %d not skewed (mean %.1f)", g.MaxDegree(), mean)
	}
}

func TestCollaborationClustering(t *testing.T) {
	g := Collaboration(400, 600, 6, 6)
	if g.NumVertices() != 400 {
		t.Fatalf("V = %d", g.NumVertices())
	}
	// Coauthorship cliques give high clustering relative to ER.
	cc := measures.ClusteringCoefficients(g)
	var mean float64
	cnt := 0
	for v, c := range cc {
		if g.Degree(int32(v)) >= 2 {
			mean += c
			cnt++
		}
	}
	mean /= float64(cnt)
	if mean < 0.3 {
		t.Errorf("collaboration mean clustering = %.3f, want >= 0.3", mean)
	}
}

func TestTriadicBAHasTriangles(t *testing.T) {
	plain := BarabasiAlbertVarM(300, 2, 7)
	closed := TriadicBA(300, 2, 0.9, 7)
	if measures.TotalTriangles(closed) <= measures.TotalTriangles(plain) {
		t.Errorf("triadic closure should add triangles: %d vs %d",
			measures.TotalTriangles(closed), measures.TotalTriangles(plain))
	}
}

func TestLookup(t *testing.T) {
	s, err := Lookup("GrQc")
	if err != nil {
		t.Fatal(err)
	}
	if s.Nodes != 5242 || s.Edges != 14496 {
		t.Errorf("GrQc spec = %+v", s)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("want error for unknown dataset")
	}
}

func TestTableISpecsMatchPaper(t *testing.T) {
	want := map[string][2]int{
		"GrQc":       {5242, 14496},
		"Wikivote":   {7115, 103689},
		"Wikipedia":  {1815914, 34022831},
		"PPI":        {4741, 15147},
		"Cit-Patent": {3774768, 16518947},
		"Amazon":     {334863, 925872},
		"Astro":      {17903, 196972},
		"DBLP":       {27199, 66832},
	}
	if len(TableI) != len(want) {
		t.Fatalf("TableI has %d entries, want %d", len(TableI), len(want))
	}
	for _, s := range TableI {
		w, ok := want[s.Name]
		if !ok {
			t.Errorf("unexpected dataset %q", s.Name)
			continue
		}
		if s.Nodes != w[0] || s.Edges != w[1] {
			t.Errorf("%s: %d/%d, want %d/%d", s.Name, s.Nodes, s.Edges, w[0], w[1])
		}
	}
}

func TestGenerateScaledSizes(t *testing.T) {
	for _, name := range []string{"GrQc", "Wikivote", "PPI", "Amazon", "DBLP"} {
		g, err := Generate(name, 0.1, 1)
		if err != nil {
			t.Fatal(err)
		}
		spec, _ := Lookup(name)
		wantN := int(float64(spec.Nodes) * 0.1)
		if g.NumVertices() < wantN/2 || g.NumVertices() > wantN*2 {
			t.Errorf("%s at 0.1 scale: V = %d, want ~%d", name, g.NumVertices(), wantN)
		}
		if g.NumEdges() == 0 {
			t.Errorf("%s: no edges", name)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestGenerateUnknown(t *testing.T) {
	if _, err := Generate("missing", 1, 1); err == nil {
		t.Error("want error for unknown dataset")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate("GrQc", 0.05, 9)
	b, _ := Generate("GrQc", 0.05, 9)
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
	for i, e := range a.Edges() {
		if b.Edges()[i] != e {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestCollaborationVsPreferentialCoreStructure(t *testing.T) {
	// The paper's key qualitative contrast (Figure 6): collaboration
	// networks (GrQc) have several disconnected dense k-cores, while
	// vote networks (Wikivote) have one dominant core. Check the
	// stand-ins reproduce it: count components of the near-top core
	// subgraph.
	grqc, _ := Generate("GrQc", 0.1, 11)
	wiki, _ := Generate("Wikivote", 0.1, 11)

	countTopCoreComponents := func(g *graph.Graph) int {
		core := measures.CoreNumbers(g)
		maxCore := int32(0)
		for _, c := range core {
			if c > maxCore {
				maxCore = c
			}
		}
		// Near-top threshold: within 80% of max.
		thresh := int32(math.Ceil(float64(maxCore) * 0.8))
		var members []int32
		for v, c := range core {
			if c >= thresh {
				members = append(members, int32(v))
			}
		}
		sub, _ := graph.InducedSubgraph(g, members)
		_, count := graph.ConnectedComponents(sub)
		return count
	}
	if got := countTopCoreComponents(grqc); got < 2 {
		t.Errorf("GrQc stand-in has %d near-top-core components, want >= 2", got)
	}
	if got := countTopCoreComponents(wiki); got != 1 {
		t.Errorf("Wikivote stand-in has %d near-top-core components, want 1", got)
	}
}

func TestScaleCountFloor(t *testing.T) {
	if got := scaleCount(1000, 0.001, 200); got != 200 {
		t.Errorf("scaleCount floor: %d, want 200", got)
	}
	if got := scaleCount(1000, 0.5, 10); got != 500 {
		t.Errorf("scaleCount: %d, want 500", got)
	}
}

func TestGenerateRMATFamily(t *testing.T) {
	g, err := Generate("rmat10", 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 1<<10 {
		t.Fatalf("rmat10 has %d vertices, want %d", g.NumVertices(), 1<<10)
	}
	if g.NumEdges() == 0 {
		t.Fatal("rmat10 generated no edges")
	}
	again, err := Generate("rmat10", 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != again.NumEdges() {
		t.Fatal("rmat generation is not deterministic per seed")
	}
	for _, bad := range []string{"rmat", "rmat0", "rmat28", "rmatx"} {
		if _, err := Generate(bad, 1, 7); err == nil {
			t.Fatalf("Generate(%q) accepted an invalid rmat name", bad)
		}
	}
}
