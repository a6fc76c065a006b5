package graph

import (
	"math/rand"
	"testing"
)

// msbfsRandomGraph builds a random multigraph over n vertices with
// about density·n edge attempts; duplicate edges and self-loops are
// dropped by the builder, and low densities leave isolated vertices and
// multiple components — exactly the shapes the level-count contract
// must survive.
func msbfsRandomGraph(seed int64, n int, density float64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for i := 0; i < int(density*float64(n)); i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.Build()
}

// componentBatch is the multi-component engine input: a dense random
// blob, a path, a star and a triangle as separate components, plus
// isolated vertices, with a batch whose sources span all of them and
// repeat one source. Only the blob's and path's sources share a
// component with other sources, so most (source, vertex) pairs start
// the batch already seen.
func componentBatch() (*Graph, []int32) {
	const blob, pathLen, star = 120, 30, 12
	b := NewBuilder(blob + pathLen + star + 3 + 4)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 5*blob; i++ {
		b.AddEdge(int32(rng.Intn(blob)), int32(rng.Intn(blob)))
	}
	p := int32(blob)
	for i := int32(0); i < pathLen-1; i++ {
		b.AddEdge(p+i, p+i+1)
	}
	c := p + pathLen
	for i := int32(1); i < star; i++ {
		b.AddEdge(c, c+i)
	}
	t := c + star
	b.AddEdge(t, t+1)
	b.AddEdge(t+1, t+2)
	b.AddEdge(t, t+2)
	iso := t + 3 // iso..iso+3 stay isolated
	sources := []int32{iso, 3, p + 29, c + 4, 77, t + 1, iso + 2, c, 3, p, 15, p + 14, t, 100, iso + 3}
	for v := int32(20); len(sources) < MSBFSBatch-1; v++ {
		sources = append(sources, v)
	}
	return b.Build(), sources
}

// levelLog records a batched engine's level reports: counts[i][L-1]
// is source i's count at level L. Levels must arrive consecutively
// starting at 1.
type levelLog struct {
	t      *testing.T
	counts [][]int32
}

func newLevelLog(t *testing.T, sources int) *levelLog {
	return &levelLog{t: t, counts: make([][]int32, sources)}
}

func (l *levelLog) visit(level int32, counts *[MSBFSBatch]int32) {
	for i := range l.counts {
		if int(level) != len(l.counts[i])+1 {
			l.t.Fatalf("level %d reported after %d levels", level, len(l.counts[i]))
		}
		l.counts[i] = append(l.counts[i], counts[i])
	}
}

// levelCounts runs one MS-BFS batch and collects, per source, the
// count of vertices first reached at each level (index = level-1).
func levelCounts(t *testing.T, s *MSBFSScratch, g *Graph, sources []int32) [][]int32 {
	t.Helper()
	log := newLevelLog(t, len(sources))
	labels, _ := ConnectedComponents(g)
	s.RunBatch(g, labels, sources, log.visit)
	return log.counts
}

// naiveLevelCounts folds one source's per-source BFS distances into the
// same level-count histogram, the oracle MS-BFS must match exactly.
func naiveLevelCounts(g *Graph, src int32) []int32 {
	var counts []int32
	for _, d := range BFSDistances(g, src) {
		if d <= 0 {
			continue
		}
		for int(d) > len(counts) {
			counts = append(counts, 0)
		}
		counts[d-1]++
	}
	return counts
}

func trimZeros(c []int32) []int32 {
	for len(c) > 0 && c[len(c)-1] == 0 {
		c = c[:len(c)-1]
	}
	return c
}

func assertCountsMatch(t *testing.T, g *Graph, sources []int32, got [][]int32, label string) {
	t.Helper()
	for i, src := range sources {
		want := trimZeros(naiveLevelCounts(g, src))
		have := trimZeros(got[i])
		if len(want) != len(have) {
			t.Fatalf("%s: source %d: %d levels, naive BFS has %d", label, src, len(have), len(want))
		}
		for l := range want {
			if want[l] != have[l] {
				t.Fatalf("%s: source %d level %d: count %d, naive BFS %d", label, src, l+1, have[l], want[l])
			}
		}
	}
}

// TestMSBFSMatchesNaiveBFS is the core oracle: across random graphs of
// varying density — including disconnected graphs and isolated
// vertices — every source's per-level counts from the batched engine
// equal the histogram of its naive BFS distances, in automatic,
// forced-top-down, and forced-bottom-up modes alike.
func TestMSBFSMatchesNaiveBFS(t *testing.T) {
	var s MSBFSScratch
	for seed := int64(0); seed < 6; seed++ {
		for _, density := range []float64{0.3, 1.5, 4.0} {
			n := 40 + int(seed)*37
			g := msbfsRandomGraph(seed, n, density)
			sources := make([]int32, 0, MSBFSBatch)
			for v := 0; v < n && v < MSBFSBatch; v++ {
				sources = append(sources, int32(v))
			}
			for _, dir := range []int8{msbfsAuto, msbfsForceTopDown, msbfsForceBottomUp} {
				s.forceDir = dir
				got := levelCounts(t, &s, g, sources)
				assertCountsMatch(t, g, sources, got, "fuzz")
			}
			s.forceDir = msbfsAuto
		}
	}
	g, sources := componentBatch()
	for _, dir := range []int8{msbfsAuto, msbfsForceTopDown, msbfsForceBottomUp} {
		s.forceDir = dir
		assertCountsMatch(t, g, sources, levelCounts(t, &s, g, sources), "components")
	}
}

// FuzzMSBFSComponents checks both batched engines against naive
// per-source traversals on fuzzed graphs: the first byte sizes the
// graph (1–96 vertices), the second the batch (1–64 sources over
// consecutive IDs, wrapping into duplicates), and each later byte pair
// is an edge. Sparse inputs leave many components and isolated
// vertices, so batches span components. RunBatch level counts and
// AccumulateBatch sigma, distances and dependencies must match the
// oracles under both forced directions, the replayed dependencies
// must equal the scan oracle's bit for bit, and the level counts
// AccumulateBatch reports must equal RunBatch's level for level. One
// scratch per engine serves every input, so graph-size changes between
// batches are covered too.
func FuzzMSBFSComponents(f *testing.F) {
	f.Add([]byte{40, 63, 0, 1, 1, 2, 2, 0, 5, 6, 9, 9, 20, 21, 21, 22, 30, 5})
	f.Add([]byte{5, 9})
	f.Add([]byte{95, 64, 1, 2, 3, 4, 5, 6, 7, 8, 2, 3, 4, 5, 90, 91, 91, 92, 10, 60})
	f.Add([]byte{12, 3, 0, 11, 11, 5, 5, 0, 3, 3})
	var bfs MSBFSScratch
	var brandes MSBrandesScratch
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%96
		b := NewBuilder(n)
		for i := 2; i+1 < len(data); i += 2 {
			b.AddEdge(int32(int(data[i])%n), int32(int(data[i+1])%n))
		}
		g := b.Build()
		sources := make([]int32, 1+int(data[1])%MSBFSBatch)
		for i := range sources {
			sources[i] = int32(i % n)
		}
		for _, dir := range []int8{msbfsForceTopDown, msbfsForceBottomUp} {
			bfs.forceDir = dir
			want := levelCounts(t, &bfs, g, sources)
			assertCountsMatch(t, g, sources, want, "fuzz")
			got := checkBatchAgainstReference(t, &brandes, g, sources, dir, "fuzz")
			assertSameLevels(t, got, want, "fuzz")
		}
	})
}

// TestMSBFSDirectionsAgree pins the direction-optimization contract
// directly: forced top-down and forced bottom-up produce identical
// counts on a graph dense enough that the automatic heuristic actually
// switches, and on a batch spanning several components.
func TestMSBFSDirectionsAgree(t *testing.T) {
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
		var td, bu MSBFSScratch
		td.forceDir = msbfsForceTopDown
		bu.forceDir = msbfsForceBottomUp
		a := levelCounts(t, &td, tc.g, tc.sources)
		b := levelCounts(t, &bu, tc.g, tc.sources)
		for i := range a {
			ta, tb := trimZeros(a[i]), trimZeros(b[i])
			if len(ta) != len(tb) {
				t.Fatalf("%s: source %d: %d levels top-down, %d bottom-up", tc.name, i, len(ta), len(tb))
			}
			for l := range ta {
				if ta[l] != tb[l] {
					t.Fatalf("%s: source %d level %d: top-down %d, bottom-up %d", tc.name, i, l+1, ta[l], tb[l])
				}
			}
		}
	}
}

// TestMSBFSShapes covers the structured corner cases: a path (deep,
// narrow levels), a star (one fat level), a batch smaller than the
// word, a single source, duplicate sources, and graphs with no edges.
func TestMSBFSShapes(t *testing.T) {
	var s MSBFSScratch

	path := NewBuilder(50)
	for i := int32(0); i < 49; i++ {
		path.AddEdge(i, i+1)
	}
	star := NewBuilder(20)
	for i := int32(1); i < 20; i++ {
		star.AddEdge(0, i)
	}
	empty := NewBuilder(5).Build()

	cases := []struct {
		name    string
		g       *Graph
		sources []int32
	}{
		{"path/full-batch", path.Build(), []int32{0, 7, 24, 49}},
		{"star", star.Build(), []int32{0, 1, 5}},
		{"no-edges", empty, []int32{0, 3}},
		{"single-source", msbfsRandomGraph(3, 64, 2), []int32{11}},
		{"duplicate-sources", msbfsRandomGraph(4, 64, 2), []int32{9, 9, 30}},
	}
	for _, tc := range cases {
		got := levelCounts(t, &s, tc.g, tc.sources)
		assertCountsMatch(t, tc.g, tc.sources, got, tc.name)
	}
}

func TestMSBFSEmptyBatch(t *testing.T) {
	var s MSBFSScratch
	g := msbfsRandomGraph(1, 10, 2)
	labels, _ := ConnectedComponents(g)
	s.RunBatch(g, labels, nil, func(int32, *[MSBFSBatch]int32) {
		t.Fatal("visitor called for an empty batch")
	})
}

// TestMSBFSWarmBatchAllocationFree pins the pooled-scratch contract:
// after the first batch has sized the buffers, further batches on the
// same scratch allocate nothing.
func TestMSBFSWarmBatchAllocationFree(t *testing.T) {
	g := msbfsRandomGraph(5, 500, 2.5)
	sources := make([]int32, MSBFSBatch)
	for i := range sources {
		sources[i] = int32(i * 7)
	}
	labels, _ := ConnectedComponents(g)
	var s MSBFSScratch
	visit := func(int32, *[MSBFSBatch]int32) {}
	s.RunBatch(g, labels, sources, visit) // warm up
	if a := testing.AllocsPerRun(10, func() {
		s.RunBatch(g, labels, sources, visit)
	}); a != 0 {
		t.Fatalf("warm RunBatch allocates %v objects per batch, want 0", a)
	}
}

// TestCountLanesMatchesBitLoop checks the byte-packed lane counter
// against a bit-by-bit count: random words of every density, runs of
// full masks long enough to overflow an 8-bit counter without the
// 255-word flush, and counts that add onto earlier ones.
func TestCountLanesMatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var words []uint64
	for i := 0; i < 700; i++ {
		words = append(words, ^uint64(0))
	}
	for i := 0; i < 2000; i++ {
		w := rng.Uint64()
		for k := rng.Intn(4); k > 0; k-- {
			w &= rng.Uint64() // sparser words
		}
		words = append(words, w, 0, uint64(1)<<uint(rng.Intn(64)))
	}
	for _, n := range []int{0, 1, 254, 255, 256, 700, 1500, len(words)} {
		var got, want [MSBFSBatch]int32
		for i := range got {
			got[i], want[i] = int32(i), int32(i)
		}
		countLanes(&got, words[:n])
		for _, w := range words[:n] {
			for b := 0; b < MSBFSBatch; b++ {
				want[b] += int32(w >> uint(b) & 1)
			}
		}
		if got != want {
			t.Fatalf("%d words: counts %v, bit loop %v", n, got, want)
		}
	}
}
