package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/graph"
)

// sortAllItems is the truncated subtree read as the query ops first
// made it, kept as the oracle of the bounded selection: every item of
// the subtree copied, sorted, then cut to the limit.
func sortAllItems(st *SuperTree, s int32, limit int) []int32 {
	items := slices.Clone(st.SubtreeRange(s))
	slices.Sort(items)
	if limit >= 0 && limit < len(items) {
		items = items[:limit]
	}
	return items
}

// peaksOracle is the peaks read as the terrain layout first made it:
// each cut root's top found by a strict > scan of its subtree range in
// preorder, then a stable sort by descending top and item count.
func peaksOracle(st *SuperTree, alpha float64) []PeakInfo {
	var peaks []PeakInfo
	for _, s := range st.ComponentRootsAt(alpha) {
		top := st.Scalar[s]
		for _, item := range st.SubtreeRange(s) {
			if sc := st.Scalar[st.NodeOf[item]]; sc > top {
				top = sc
			}
		}
		peaks = append(peaks, PeakInfo{Node: s, Height: top, Items: int(st.SubtreeSize()[s])})
	}
	sort.SliceStable(peaks, func(i, j int) bool {
		if peaks[i].Height != peaks[j].Height {
			return peaks[i].Height > peaks[j].Height
		}
		return peaks[i].Items > peaks[j].Items
	})
	return peaks
}

// selectPath names the path AppendSubtreeItems takes for s at limit.
func selectPath(st *SuperTree, s int32, limit int) string {
	m := ListLen(st.size[s], limit)
	var runs [maxMergeRuns]run
	switch {
	case m == 0:
		return "empty"
	case st.end[s]-st.start[s] == st.size[s]:
		return "members"
	case st.scansFor(s):
		return "scan"
	}
	if _, merged := st.appendMerged(nil, s, m, runs[:]); merged {
		return "merge"
	}
	if m < int(st.size[s]) {
		return "heap"
	}
	return "sort"
}

// blockField returns a vertex field on blocks connected random trees
// over n vertices, vertex v in block v%blocks, so each block's items
// are spread over the whole ID range, with values drawn from
// [0, valueRange).
func blockField(seed int64, n, blocks, valueRange int) *VertexField {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for v := blocks; v < n; v++ {
		b.AddEdge(int32(v), int32(v%blocks+blocks*rng.Intn(v/blocks)))
	}
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(rng.Intn(valueRange))
	}
	return MustVertexField(b.Build(), values)
}

// selectionTrees returns random vertex and edge super trees with heavy
// ties (few distinct values), many roots, and zeros of both signs, and
// one tree of 15 blocks of 200 items in hundreds of super nodes each.
func selectionTrees(seed int64) []*SuperTree {
	n := 30 + int(seed)*23
	density := []float64{0.3, 1, 2.5}[seed%3]
	valueRange := []int{1, 2, 4, 16, 64}[seed%5]
	vf := randomField(seed, n, density, valueRange)
	ef := randomEdgeField(seed, n, density, valueRange)
	// Sibling tops of zeros of both signs, under negative parents, make
	// ties SubtreeTop must break by preorder.
	rng := rand.New(rand.NewSource(seed))
	signed := make([]float64, len(vf.Values))
	for i := range signed {
		signed[i] = []float64{-2, -1, math.Copysign(0, -1), 0}[rng.Intn(4)]
	}
	trees := []*SuperTree{
		VertexSuperTree(vf),
		EdgeSuperTree(ef),
		VertexSuperTree(MustVertexField(vf.G, signed)),
	}
	if seed%8 == 0 {
		trees = append(trees, VertexSuperTree(blockField(seed, 3000, 15, 1000)))
	}
	return trees
}

// TestBoundedSelectionMatchesSortAll checks AppendSubtreeItems on every
// subtree, and AppendComponents and Peaks on every cut, against the
// sort-everything oracles, at limits on both sides of each subtree's
// size, over trees whose subtrees take every selection path.
func TestBoundedSelectionMatchesSortAll(t *testing.T) {
	paths := map[string]int{}
	prefix := []int32{-7, -8}
	for seed := int64(0); seed < 24; seed++ {
		for ti, st := range selectionTrees(seed) {
			for s := int32(0); s < int32(st.Len()); s++ {
				size := int(st.size[s])
				for _, limit := range []int{-1, 0, 1, 7, 200, size - 1, size, size + 1} {
					paths[selectPath(st, s, limit)]++
					want := sortAllItems(st, s, limit)
					got := st.AppendSubtreeItems(slices.Clone(prefix), s, limit)
					if !slices.Equal(got[:2], prefix) || !slices.Equal(got[2:], want) {
						t.Fatalf("seed %d tree %d: AppendSubtreeItems(%d, limit %d) = %v, want %v after %v",
							seed, ti, s, limit, got, want, prefix)
					}
				}
			}
			alphas := []float64{math.Inf(-1), math.Inf(1)}
			for i := 0; i < st.Len(); i += 1 + st.Len()/64 {
				alphas = append(alphas, st.Scalar[i], st.Scalar[i]+0.5)
			}
			for _, alpha := range alphas {
				roots := st.ComponentRootsAt(alpha)
				for _, limit := range []int{-1, 1, 7, 200} {
					var want []int32
					for _, r := range roots {
						want = append(want, sortAllItems(st, r, limit)...)
					}
					if got := st.AppendComponents(nil, roots, limit); !slices.Equal(got, want) {
						t.Fatalf("seed %d tree %d α=%g limit %d: AppendComponents = %v, want %v",
							seed, ti, alpha, limit, got, want)
					}
				}
				if got, want := st.Peaks(alpha), peaksOracle(st, alpha); !slices.Equal(got, want) ||
					!slices.EqualFunc(got, want, func(a, b PeakInfo) bool { return math.Signbit(a.Height) == math.Signbit(b.Height) }) {
					t.Fatalf("seed %d tree %d α=%g: Peaks = %v, want %v", seed, ti, alpha, got, want)
				}
			}
		}
	}
	for _, p := range []string{"empty", "members", "merge", "scan", "heap", "sort"} {
		if paths[p] == 0 {
			t.Errorf("no subtree took the %s path: %v", p, paths)
		}
	}
	t.Logf("selection paths: %v", paths)
}

// TestSharedScanFillsManyComponents: a cut of five large components of
// hundreds of super nodes, their items interleaved in ID order, fills
// them all from one shared scan; overlapping roots (not a cut) beyond the scan slots
// are still answered.
func TestSharedScanFillsManyComponents(t *testing.T) {
	const blocks = 5
	st := VertexSuperTree(blockField(3, 4000, blocks, 3))
	roots := st.ComponentRootsAt(math.Inf(-1))
	for _, r := range roots {
		if selectPath(st, r, 200) != "scan" {
			t.Fatalf("root %d of size %d does not scan", r, st.size[r])
		}
	}
	if len(roots) != blocks {
		t.Fatalf("%d roots, want %d", len(roots), blocks)
	}
	for _, limit := range []int{-1, 1, 200} {
		var want []int32
		for _, r := range roots {
			want = append(want, sortAllItems(st, r, limit)...)
		}
		if got := st.AppendComponents(nil, roots, limit); !slices.Equal(got, want) {
			t.Fatalf("limit %d: AppendComponents differs from the oracle", limit)
		}
	}
	// More scanned subtrees than scan slots: one root repeated.
	many := slices.Repeat(roots[:1], 70)
	var want []int32
	for range many {
		want = append(want, sortAllItems(st, roots[0], 5)...)
	}
	if got := st.AppendComponents(nil, many, 5); !slices.Equal(got, want) {
		t.Fatal("70 repeated roots: AppendComponents differs from the oracle")
	}
}

// TestSelectionAllocs: a bounded read allocates nothing when dst has
// room, and Peaks makes one allocation once SubtreeTop is built.
func TestSelectionAllocs(t *testing.T) {
	st := VertexSuperTree(randomField(9, 5000, 2, 8))
	dst := make([]int32, 0, st.NumItems())
	for _, r := range st.Roots() {
		for _, limit := range []int{-1, 1, 200} {
			if a := testing.AllocsPerRun(5, func() { st.AppendSubtreeItems(dst, r, limit) }); a != 0 {
				t.Errorf("AppendSubtreeItems(%d, %d): %.0f allocs, want 0", r, limit, a)
			}
		}
	}
	roots := st.ComponentRootsAt(4)
	if a := testing.AllocsPerRun(5, func() { st.AppendComponents(dst, roots, 200) }); a != 0 {
		t.Errorf("AppendComponents: %.0f allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(5, func() {
		for range st.ComponentRoots(4) {
		}
	}); a != 0 {
		t.Errorf("ComponentRoots: %.0f allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(5, func() { st.Peaks(4) }); a != 1 {
		t.Errorf("Peaks: %.0f allocs, want 1", a)
	}
}

// TestSubtreeTopConcurrent: goroutines racing to the first Peaks of a
// fresh tree all read the one SubtreeTop build.
func TestSubtreeTopConcurrent(t *testing.T) {
	st := VertexSuperTree(randomField(5, 2000, 2, 16))
	want := peaksOracle(st, 3)
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := st.Peaks(3); !slices.Equal(got, want) {
				t.Errorf("Peaks = %v, want %v", got, want)
			}
		}()
	}
	wg.Wait()
}
