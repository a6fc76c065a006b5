package graph

import (
	"math"
	"math/bits"
	"testing"
)

// refBrandesSource runs the classic single-source Brandes pass (the
// rolling-queue forward phase, exact reference) and returns sigma,
// dist, and the accumulated per-vertex and per-edge dependencies.
func refBrandesSource(g *Graph, src int32) (sigma []float64, dist []int32, delta []float64, edelta []float64) {
	n := g.NumVertices()
	sigma = make([]float64, n)
	dist = make([]int32, n)
	delta = make([]float64, n)
	edelta = make([]float64, g.NumEdges())
	for i := range dist {
		dist[i] = -1
	}
	order := make([]int32, 0, n)
	sigma[src], dist[src] = 1, 0
	order = append(order, src)
	for head := 0; head < len(order); head++ {
		v := order[head]
		for _, u := range g.Neighbors(v) {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				order = append(order, u)
			}
			if dist[u] == dist[v]+1 {
				sigma[u] += sigma[v]
			}
		}
	}
	for i := len(order) - 1; i > 0; i-- {
		w := order[i]
		nbrs := g.Neighbors(w)
		eids := g.IncidentEdges(w)
		for j, v := range nbrs {
			if dist[v] == dist[w]-1 {
				c := sigma[v] / sigma[w] * (1 + delta[w])
				delta[v] += c
				edelta[eids[j]] += c
			}
		}
	}
	return sigma, dist, delta, edelta
}

// batchDistances reconstructs per-lane BFS distances from the scratch's
// recorded events: lane s of events[e].bits set at level L means
// dist_s(events[e].v) = L.
func batchDistances(s *MSBrandesScratch, n, k int, sources []int32) [][]int32 {
	dist := make([][]int32, k)
	for i := range dist {
		dist[i] = make([]int32, n)
		for v := range dist[i] {
			dist[i][v] = -1
		}
		dist[i][sources[i]] = 0
	}
	lo := int32(0)
	for lvl, hi := range s.levelEnd {
		for e := lo; e < hi; e++ {
			v, b := s.events[e].v, s.events[e].bits
			for i := 0; i < k; i++ {
				if b&(1<<uint(i)) != 0 {
					dist[i][v] = int32(lvl + 1)
				}
			}
		}
		lo = hi
	}
	return dist
}

// scanBackward is the reverse sweep that finds each DAG edge again by
// scanning, retained as the oracle of the replayed one. It reads s's
// recorded events and sigma lanes after a batch and, per level L
// deepest-first, installs in its own mask array the bits of the
// sources at level L-1, then tests every neighbor of each level-L
// event vertex against them, in event order. It keeps its own delta
// lanes, leaves s untouched, and adds into bc and ebc (either may be
// nil).
func scanBackward(s *MSBrandesScratch, g *Graph, sources []int32, bc, ebc []float64) {
	n := g.NumVertices()
	delta := make([]float64, n*MSBFSBatch)
	prev := make([]uint64, n)
	lanes := func(a []float64, v int32) []float64 {
		return a[int(v)*MSBFSBatch : int(v)*MSBFSBatch+MSBFSBatch]
	}
	levelStart := func(lvl int) int32 {
		if lvl < 2 {
			return 0
		}
		return s.levelEnd[lvl-2]
	}
	for lvl := len(s.levelEnd); lvl >= 1; lvl-- {
		clear(prev)
		if lvl == 1 {
			for i, src := range sources {
				prev[src] |= uint64(1) << uint(i)
			}
		} else {
			for _, ev := range s.events[levelStart(lvl-1):s.levelEnd[lvl-2]] {
				prev[ev.v] |= ev.bits
			}
		}
		for _, ev := range s.events[levelStart(lvl):s.levelEnd[lvl-1]] {
			w, wb := ev.v, ev.bits
			sw, dw := lanes(s.sigma, w), lanes(delta, w)
			eids := g.IncidentEdges(w)
			for j, v := range g.Neighbors(w) {
				pb := prev[v] & wb
				if pb == 0 {
					continue
				}
				sv, dv := lanes(s.sigma, v), lanes(delta, v)
				for m := pb; m != 0; m &= m - 1 {
					b := bits.TrailingZeros64(m)
					c := sv[b] / sw[b] * (1 + dw[b])
					dv[b] += c
					if ebc != nil {
						ebc[eids[j]] += c
					}
				}
			}
			if bc != nil {
				acc := bc[w]
				for m := wb; m != 0; m &= m - 1 {
					acc += dw[bits.TrailingZeros64(m)]
				}
				bc[w] = acc
			}
		}
	}
}

// assertSameBits requires got and want to hold the same float64 bits.
func assertSameBits(t *testing.T, got, want []float64, what string) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, scan oracle %v", what, i, got[i], want[i])
		}
	}
}

// checkBatchAgainstReference runs one MS-Brandes batch on s and pins,
// per source lane: sigma exactly equal to the reference pass,
// distances (from the event record) exactly equal, and the accumulated
// bc/ebc equal to the summed reference dependencies up to
// floating-point summation order, and bit for bit equal to the scan
// oracle's. It returns the level counts the batch reported to its
// visitor.
func checkBatchAgainstReference(t *testing.T, s *MSBrandesScratch, g *Graph, sources []int32, dir int8, label string) [][]int32 {
	t.Helper()
	n := g.NumVertices()
	s.forceDir = dir
	bc := make([]float64, n)
	ebc := make([]float64, g.NumEdges())
	labels, _ := ConnectedComponents(g)
	log := newLevelLog(t, len(sources))
	s.AccumulateBatch(g, labels, sources, bc, ebc, log.visit)

	scanBC := make([]float64, n)
	scanEBC := make([]float64, g.NumEdges())
	scanBackward(s, g, sources, scanBC, scanEBC)
	assertSameBits(t, bc, scanBC, label+": bc")
	assertSameBits(t, ebc, scanEBC, label+": ebc")

	wantBC := make([]float64, n)
	wantEBC := make([]float64, g.NumEdges())
	dist := batchDistances(s, n, len(sources), sources)
	for i, src := range sources {
		sigma, rdist, delta, edelta := refBrandesSource(g, src)
		for v := 0; v < n; v++ {
			if got := s.sigma[v*MSBFSBatch+i]; got != sigma[v] {
				t.Fatalf("%s: source %d sigma[%d] = %g, reference %g", label, src, v, got, sigma[v])
			}
			if dist[i][v] != rdist[v] {
				t.Fatalf("%s: source %d dist[%d] = %d, reference %d", label, src, v, dist[i][v], rdist[v])
			}
		}
		for v := range wantBC {
			if int32(v) != src { // Brandes never credits the source its own delta
				wantBC[v] += delta[v]
			}
		}
		for e := range wantEBC {
			wantEBC[e] += edelta[e]
		}
	}
	for v := range wantBC {
		if diff := math.Abs(bc[v] - wantBC[v]); diff > 1e-9*math.Max(1, math.Abs(wantBC[v])) {
			t.Fatalf("%s: bc[%d] = %g, reference %g", label, v, bc[v], wantBC[v])
		}
	}
	for e := range wantEBC {
		if diff := math.Abs(ebc[e] - wantEBC[e]); diff > 1e-9*math.Max(1, math.Abs(wantEBC[e])) {
			t.Fatalf("%s: ebc[%d] = %g, reference %g", label, e, ebc[e], wantEBC[e])
		}
	}
	return log.counts
}

// assertSameLevels requires two engines' level reports to be equal
// level for level: the same number of levels and the same count per
// (source, level).
func assertSameLevels(t *testing.T, got, want [][]int32, label string) {
	t.Helper()
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: source lane %d: MS-Brandes reported %d levels, MS-BFS %d", label, i, len(got[i]), len(want[i]))
		}
		for l := range want[i] {
			if got[i][l] != want[i][l] {
				t.Fatalf("%s: source lane %d level %d: MS-Brandes count %d, MS-BFS %d", label, i, l+1, got[i][l], want[i][l])
			}
		}
	}
}

// TestMSBrandesLevelCountsMatchMSBFS is the level-count oracle: the
// counts AccumulateBatch reports to its visitor equal RunBatch's level
// for level, on random graphs across densities and on a
// many-component graph, under automatic, forced top-down and forced
// bottom-up directions (each engine run under every direction), for
// full and partial batches, duplicate sources and batches that span
// components.
func TestMSBrandesLevelCountsMatchMSBFS(t *testing.T) {
	type batch struct {
		name    string
		g       *Graph
		sources []int32
	}
	var cases []batch
	for seed := int64(0); seed < 4; seed++ {
		for _, density := range []float64{0.3, 1.5, 6.0} {
			n := 50 + int(seed)*83
			g := msbfsRandomGraph(seed, n, density)
			full := make([]int32, 0, MSBFSBatch)
			for v := 0; v < n && v < MSBFSBatch; v++ {
				full = append(full, int32(v))
			}
			cases = append(cases,
				batch{"full", g, full},
				batch{"partial", g, []int32{int32(n - 1), 0, int32(n / 2)}},
				batch{"duplicates", g, []int32{5, 5, 9, int32(n - 2), 9}})
		}
	}
	comps, compSources := componentBatch()
	cases = append(cases, batch{"components", comps, compSources})
	dirs := []int8{msbfsAuto, msbfsForceTopDown, msbfsForceBottomUp}
	var bfs MSBFSScratch
	var brandes MSBrandesScratch
	for _, tc := range cases {
		labels, _ := ConnectedComponents(tc.g)
		bc := make([]float64, tc.g.NumVertices())
		for _, bdir := range dirs {
			brandes.forceDir = bdir
			log := newLevelLog(t, len(tc.sources))
			brandes.AccumulateBatch(tc.g, labels, tc.sources, bc, nil, log.visit)
			for _, fdir := range dirs {
				bfs.forceDir = fdir
				assertSameLevels(t, log.counts, levelCounts(t, &bfs, tc.g, tc.sources), tc.name)
			}
		}
	}
}

// TestMSBrandesMatchesReference is the core oracle: across random
// graphs of varying density — disconnected graphs and isolated
// vertices included — every lane's sigma and distances equal the
// per-source reference exactly, and the batch-accumulated vertex and
// edge dependencies match up to summation order and equal the scan
// oracle's bit for bit, in automatic, forced-top-down, and
// forced-bottom-up modes alike.
func TestMSBrandesMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		for _, density := range []float64{0.3, 1.5, 4.0} {
			n := 40 + int(seed)*31
			g := msbfsRandomGraph(seed, n, density)
			sources := make([]int32, 0, MSBFSBatch)
			for v := 0; v < n && v < MSBFSBatch; v++ {
				sources = append(sources, int32(v))
			}
			for _, dir := range []int8{msbfsAuto, msbfsForceTopDown, msbfsForceBottomUp} {
				checkBatchAgainstReference(t, new(MSBrandesScratch), g, sources, dir, "fuzz")
			}
		}
	}
	g, sources := componentBatch()
	for _, dir := range []int8{msbfsAuto, msbfsForceTopDown, msbfsForceBottomUp} {
		checkBatchAgainstReference(t, new(MSBrandesScratch), g, sources, dir, "components")
	}
}

// TestMSBrandesShapes covers the structured corner cases mirroring
// msbfs_test.go: path (deep narrow levels), star (one fat level),
// complete graph (single dense level), no edges, partial batches,
// single and duplicate sources.
func TestMSBrandesShapes(t *testing.T) {
	path := NewBuilder(50)
	for i := int32(0); i < 49; i++ {
		path.AddEdge(i, i+1)
	}
	star := NewBuilder(20)
	for i := int32(1); i < 20; i++ {
		star.AddEdge(0, i)
	}
	complete := NewBuilder(12)
	for i := int32(0); i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			complete.AddEdge(i, j)
		}
	}
	empty := NewBuilder(5).Build()

	cases := []struct {
		name    string
		g       *Graph
		sources []int32
	}{
		{"path/spread", path.Build(), []int32{0, 7, 24, 49}},
		{"star", star.Build(), []int32{0, 1, 5}},
		{"complete", complete.Build(), []int32{0, 3, 11}},
		{"no-edges", empty, []int32{0, 3}},
		{"single-source", msbfsRandomGraph(3, 64, 2), []int32{11}},
		{"duplicate-sources", msbfsRandomGraph(4, 64, 2), []int32{9, 9, 30}},
	}
	for _, tc := range cases {
		checkBatchAgainstReference(t, new(MSBrandesScratch), tc.g, tc.sources, msbfsAuto, tc.name)
	}
}

// TestMSBrandesDirectionsAgree pins the direction contract on a graph
// dense enough that the automatic heuristic actually flips bottom-up,
// and on a batch spanning several components: sigma lanes are bitwise
// identical between forced directions (integer counts, order-free),
// and bc agrees within summation-order slack.
func TestMSBrandesDirectionsAgree(t *testing.T) {
	dense := msbfsRandomGraph(7, 300, 6.0)
	denseSources := make([]int32, MSBFSBatch)
	for i := range denseSources {
		denseSources[i] = int32(i)
	}
	comps, compSources := componentBatch()
	for _, tc := range []struct {
		name    string
		g       *Graph
		sources []int32
	}{
		{"dense", dense, denseSources},
		{"components", comps, compSources},
	} {
		g, sources := tc.g, tc.sources
		n := g.NumVertices()
		labels, _ := ConnectedComponents(g)
		var td, bu MSBrandesScratch
		td.forceDir = msbfsForceTopDown
		bu.forceDir = msbfsForceBottomUp
		bcTD := make([]float64, n)
		bcBU := make([]float64, n)
		td.AccumulateBatch(g, labels, sources, bcTD, nil, nil)
		bu.AccumulateBatch(g, labels, sources, bcBU, nil, nil)
		for v := 0; v < n; v++ {
			for i := range sources {
				if td.sigma[v*MSBFSBatch+i] != bu.sigma[v*MSBFSBatch+i] {
					t.Fatalf("%s: sigma[%d] lane %d: top-down %g, bottom-up %g",
						tc.name, v, i, td.sigma[v*MSBFSBatch+i], bu.sigma[v*MSBFSBatch+i])
				}
			}
			if diff := math.Abs(bcTD[v] - bcBU[v]); diff > 1e-9*math.Max(1, math.Abs(bcBU[v])) {
				t.Fatalf("%s: bc[%d]: top-down %g, bottom-up %g", tc.name, v, bcTD[v], bcBU[v])
			}
		}
	}
}

// TestMSBrandesAccumulates pins the add-into contract: two batches into
// the same accumulator sum, and a nil bc/ebc skips that side.
func TestMSBrandesAccumulates(t *testing.T) {
	g := msbfsRandomGraph(9, 80, 2.0)
	n := g.NumVertices()
	labels, _ := ConnectedComponents(g)
	var s MSBrandesScratch
	one := make([]float64, n)
	s.AccumulateBatch(g, labels, []int32{3}, one, nil, nil)
	twice := make([]float64, n)
	s.AccumulateBatch(g, labels, []int32{3}, twice, nil, nil)
	s.AccumulateBatch(g, labels, []int32{3}, twice, nil, nil)
	for v := range twice {
		if diff := math.Abs(twice[v] - 2*one[v]); diff > 1e-12*math.Max(1, one[v]) {
			t.Fatalf("accumulation not additive at %d: %g vs 2·%g", v, twice[v], one[v])
		}
	}
	s.AccumulateBatch(g, labels, []int32{5}, nil, nil, nil) // both sides nil: traversal only, must not panic
}

func TestMSBrandesEmptyBatch(t *testing.T) {
	g := msbfsRandomGraph(1, 10, 2)
	labels, _ := ConnectedComponents(g)
	var s MSBrandesScratch
	s.AccumulateBatch(g, labels, nil, nil, nil, func(int32, *[MSBFSBatch]int32) {
		t.Fatal("visitor called for an empty batch")
	})
	if len(s.levelEnd) != 0 {
		t.Fatal("empty batch recorded levels")
	}
}

// nextLevelDirections returns a visitor that records, after each
// committed level, whether s's own direction rule expands the next
// level bottom-up. At a commit, seen already holds that level's bits,
// so the rule's inputs are the level's event vertices and the degree
// sum over vertices some source has not yet seen.
func nextLevelDirections(s *MSBrandesScratch, g *Graph, sources []int32, dirs *[]bool) func(int32, *[MSBFSBatch]int32) {
	full := ^uint64(0)
	if len(sources) < MSBFSBatch {
		full = 1<<uint(len(sources)) - 1
	}
	return func(level int32, _ *[MSBFSBatch]int32) {
		lo := int32(0)
		if level >= 2 {
			lo = s.levelEnd[level-2]
		}
		var cur []int32
		for _, ev := range s.events[lo:s.levelEnd[level-1]] {
			cur = append(cur, ev.v)
		}
		incompleteDeg := int64(0)
		for v, seen := range s.seen {
			if seen != full {
				incompleteDeg += int64(g.Degree(int32(v)))
			}
		}
		*dirs = append(*dirs, s.bottomUp(g, cur, incompleteDeg))
	}
}

// TestMSBrandesWarmBatchAllocationFree pins the pooled-scratch
// contract: after the first batch has sized the buffers, further
// batches on the same scratch allocate nothing, with or without a
// level visitor, with edge dependencies on. The batch's automatic
// directions expand both top-down and bottom-up, so both ways of
// recording DAG edges, the top-down regroup included, run warm.
func TestMSBrandesWarmBatchAllocationFree(t *testing.T) {
	g := msbfsRandomGraph(5, 500, 1.5)
	sources := make([]int32, MSBFSBatch)
	for i := range sources {
		sources[i] = int32(i * 7)
	}
	bc := make([]float64, g.NumVertices())
	ebc := make([]float64, g.NumEdges())
	labels, _ := ConnectedComponents(g)
	var reached int64
	counting := func(_ int32, counts *[MSBFSBatch]int32) {
		for _, c := range counts {
			reached += int64(c)
		}
	}
	for _, visit := range []func(int32, *[MSBFSBatch]int32){nil, counting} {
		var s MSBrandesScratch
		var dirs []bool
		s.AccumulateBatch(g, labels, sources, bc, ebc, nextLevelDirections(&s, g, sources, &dirs)) // warm up
		// The last decision is for a level that found nothing.
		var topDown, bottomUp bool
		for _, bu := range dirs[:len(dirs)-1] {
			bottomUp = bottomUp || bu
			topDown = topDown || !bu
		}
		if !topDown || !bottomUp {
			t.Fatalf("the batch's levels after the first expand bottom-up %v, want both directions", dirs[:len(dirs)-1])
		}
		if a := testing.AllocsPerRun(10, func() {
			s.AccumulateBatch(g, labels, sources, bc, ebc, visit)
		}); a != 0 {
			t.Fatalf("warm AccumulateBatch (visitor %t) allocates %v objects per batch, want 0", visit != nil, a)
		}
	}
	if reached == 0 {
		t.Fatal("the visitor saw no reached vertices")
	}
}
