package query

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/correlation"
	"repro/internal/datasets"
	"repro/internal/graph"
)

// testGraph is a small deterministic graph: two disjoint triangles
// (each a 2-core) plus a pendant vertex 6 hanging off vertex 2 (core
// number 1), so the α=2 cut has exactly two 3-vertex components.
//
//	0-1-2 (triangle)   3-4-5 (triangle)   2-6 pendant
func testGraph() *graph.Graph {
	b := graph.NewBuilder(7)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	b.AddEdge(3, 5)
	b.AddEdge(2, 6)
	return b.Build()
}

func testEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	e := NewEngine(opts)
	e.RegisterDataset("tiny", testGraph())
	return e
}

func TestSnapshotProducesConsistentBundle(t *testing.T) {
	e := testEngine(t, Options{})
	snap, err := e.Snapshot(Key{Dataset: "tiny", Measure: "kcore", Color: "degree"})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Edge {
		t.Fatal("kcore snapshot claims edge basis")
	}
	n := snap.Graph.NumVertices()
	if len(snap.Values) != n || len(snap.ColorValues) != n {
		t.Fatalf("field lengths %d/%d for %d vertices", len(snap.Values), len(snap.ColorValues), n)
	}
	if snap.Terrain == nil || snap.Spectrum == nil {
		t.Fatal("snapshot missing terrain or spectrum")
	}
	if got := snap.Terrain.Tree.NumItems(); got != n {
		t.Fatalf("tree over %d items, want %d", got, n)
	}
	info := snap.Info()
	if info.Measure != "kcore" || info.Items != n || info.Seq != snap.Seq {
		t.Fatalf("bad info %+v", info)
	}
}

// TestConcurrentMissesCoalesce is the acceptance criterion: N
// concurrent requests for one uncached key run the analysis exactly
// once, asserted via the analysis-count hook under -race.
func TestConcurrentMissesCoalesce(t *testing.T) {
	g, err := datasets.Generate("GrQc", 0.03, 42)
	if err != nil {
		t.Fatal(err)
	}
	var hooked int64
	var hookMu sync.Mutex
	e := NewEngine(Options{OnAnalyze: func(Key) {
		hookMu.Lock()
		hooked++
		hookMu.Unlock()
	}})
	e.RegisterDataset("GrQc", g)

	const workers = 32
	key := Key{Dataset: "GrQc", Measure: "kcore"}
	snaps := make([]*Snapshot, workers)
	var wg sync.WaitGroup
	var start sync.WaitGroup
	start.Add(1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			start.Wait()
			snap, err := e.Snapshot(key)
			if err != nil {
				t.Error(err)
				return
			}
			snaps[w] = snap
		}(w)
	}
	start.Done()
	wg.Wait()

	if got := e.AnalysisCount(); got != 1 {
		t.Fatalf("%d concurrent misses ran %d analyses, want exactly 1", workers, got)
	}
	hookMu.Lock()
	defer hookMu.Unlock()
	if hooked != 1 {
		t.Fatalf("OnAnalyze fired %d times, want 1", hooked)
	}
	for w, snap := range snaps {
		if snap != snaps[0] {
			t.Fatalf("worker %d got a different snapshot (seq %d vs %d)", w, snap.Seq, snaps[0].Seq)
		}
	}
}

func TestCacheHitSkipsAnalysisAndEvictionRetriggers(t *testing.T) {
	e := testEngine(t, Options{MaxSnapshots: 2})
	keys := []Key{
		{Dataset: "tiny", Measure: "kcore"},
		{Dataset: "tiny", Measure: "degree"},
		{Dataset: "tiny", Measure: "triangles"},
	}
	for _, k := range keys {
		if _, err := e.Snapshot(k); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.AnalysisCount(); got != 3 {
		t.Fatalf("analyses after 3 distinct keys = %d", got)
	}
	// triangles and degree are cached; kcore was evicted (LRU of 2).
	if _, err := e.Snapshot(keys[2]); err != nil {
		t.Fatal(err)
	}
	if got := e.AnalysisCount(); got != 3 {
		t.Fatalf("cache hit ran an analysis (count %d)", got)
	}
	if e.Cached(keys[0]) {
		t.Fatal("kcore should have been evicted by the 2-entry LRU")
	}
	if _, err := e.Snapshot(keys[0]); err != nil {
		t.Fatal(err)
	}
	if got := e.AnalysisCount(); got != 4 {
		t.Fatalf("evicted key re-request ran %d analyses total, want 4", got)
	}
}

func TestSnapshotErrorNotCached(t *testing.T) {
	e := testEngine(t, Options{})
	key := Key{Dataset: "tiny", Measure: "no-such-measure"}
	for i := 0; i < 2; i++ {
		if _, err := e.Snapshot(key); err == nil {
			t.Fatal("unknown measure must error")
		}
	}
	if e.Cached(key) {
		t.Fatal("failed analysis must not be cached")
	}
	if _, err := e.Snapshot(Key{Dataset: "nope", Measure: "kcore"}); err == nil {
		t.Fatal("unknown dataset without loader must error")
	}
}

func TestLoaderLoadsOnDemandOnce(t *testing.T) {
	loads := 0
	e := NewEngine(Options{Loader: func(name string) (*graph.Graph, error) {
		if name != "lazy" {
			return nil, fmt.Errorf("unknown dataset %q", name)
		}
		loads++
		return testGraph(), nil
	}})
	for i := 0; i < 2; i++ {
		if _, err := e.Snapshot(Key{Dataset: "lazy", Measure: "degree"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Snapshot(Key{Dataset: "lazy", Measure: "kcore"}); err != nil {
		t.Fatal(err)
	}
	if loads != 1 {
		t.Fatalf("loader ran %d times, want 1", loads)
	}
	if _, err := e.Snapshot(Key{Dataset: "other", Measure: "kcore"}); err == nil {
		t.Fatal("loader error must propagate")
	}
}

func TestInvalidateDropsDataset(t *testing.T) {
	e := testEngine(t, Options{})
	key := Key{Dataset: "tiny", Measure: "kcore"}
	if _, err := e.Snapshot(key); err != nil {
		t.Fatal(err)
	}
	e.Invalidate("tiny")
	if e.Cached(key) {
		t.Fatal("Invalidate left the snapshot cached")
	}
	if _, err := e.Snapshot(key); err != nil {
		t.Fatal(err)
	}
	if got := e.AnalysisCount(); got != 2 {
		t.Fatalf("analyses after invalidate = %d, want 2", got)
	}
}

func TestResolveStructuralOps(t *testing.T) {
	e := testEngine(t, Options{})
	snap, err := e.Snapshot(Key{Dataset: "tiny", Measure: "kcore"})
	if err != nil {
		t.Fatal(err)
	}
	tree := snap.Terrain.Tree

	// Both triangles are 2-cores; the bridge and the isolated vertex
	// are below α=2, so the cut has exactly two 3-vertex components.
	results := e.Resolve(snap, []Op{
		{Op: OpAlphaCut, Alpha: 2},
		{Op: OpPeaks, Alpha: 2},
		{Op: OpMCC, Item: 0},
		{Op: OpComponentOf, Item: 4, Alpha: 2},
		{Op: OpComponentOf, Item: 6, Alpha: 2},
		{Op: OpSpectrum},
	})

	cut := results[0]
	if cut.Error != "" || cut.Count != 2 {
		t.Fatalf("alpha_cut at 2: %+v", cut)
	}
	wantComps := tree.ComponentsAt(2)
	for i, c := range cut.Components {
		if c.Size != len(wantComps[i]) || !reflect.DeepEqual(c.Items, wantComps[i]) {
			t.Fatalf("component %d = %+v, want %v", i, c, wantComps[i])
		}
	}

	peaks := results[1]
	if peaks.Error != "" || peaks.Count != 2 || len(peaks.Peaks) != 2 {
		t.Fatalf("peaks at 2: %+v", peaks)
	}
	for _, p := range peaks.Peaks {
		if p.Height < 2 || p.Items != 3 {
			t.Fatalf("implausible peak %+v", p)
		}
	}

	mcc := results[2]
	if mcc.Error != "" || !reflect.DeepEqual(mcc.Items, tree.MCC(0)) || mcc.ItemCount != len(tree.MCC(0)) {
		t.Fatalf("mcc(0) = %+v, want %v", mcc, tree.MCC(0))
	}

	compOf := results[3]
	if compOf.Error != "" || compOf.ItemCount != 3 {
		t.Fatalf("component_of(4, 2) = %+v", compOf)
	}
	got := append([]int32(nil), compOf.Items...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if !reflect.DeepEqual(got, []int32{3, 4, 5}) {
		t.Fatalf("component_of(4, 2) items %v, want [3 4 5]", got)
	}

	below := results[4]
	if below.Error != "" || below.ItemCount != 0 || len(below.Items) != 0 {
		t.Fatalf("component_of(6, 2) for a below-cut item = %+v, want empty", below)
	}

	spec := results[5]
	if spec.Error != "" || spec.Spectrum == nil || spec.Spectrum != snap.Spectrum {
		t.Fatalf("spectrum op did not return the snapshot's spectrum")
	}
}

func TestResolveCorrelationOps(t *testing.T) {
	e := testEngine(t, Options{})
	snap, err := e.Snapshot(Key{Dataset: "tiny", Measure: "kcore"})
	if err != nil {
		t.Fatal(err)
	}

	results := e.Resolve(snap, []Op{
		{Op: OpGCI, MeasureJ: "degree"}, // measure_i defaults to kcore
		{Op: OpLCI, MeasureI: "kcore", MeasureJ: "degree", Limit: 3},
	})
	gciRes, lciRes := results[0], results[1]
	if gciRes.Error != "" || gciRes.GCI == nil {
		t.Fatalf("gci: %+v", gciRes)
	}
	if math.IsNaN(*gciRes.GCI) || math.IsInf(*gciRes.GCI, 0) {
		t.Fatalf("gci = %g, want finite", *gciRes.GCI)
	}
	// Cross-check against the correlation package directly.
	vi, _, _ := e.fieldValues(snap, "kcore")
	vj, _, _ := e.fieldValues(snap, "degree")
	want, err := correlation.GCI(snap.Graph, vi, vj, correlation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if *gciRes.GCI != want {
		t.Fatalf("gci = %g, correlation package says %g", *gciRes.GCI, want)
	}

	if lciRes.Error != "" || lciRes.GCI == nil || *lciRes.GCI != want {
		t.Fatalf("lci: %+v", lciRes)
	}
	if len(lciRes.Outliers) != 3 {
		t.Fatalf("%d outliers with limit 3", len(lciRes.Outliers))
	}
	for i := 1; i < len(lciRes.Outliers); i++ {
		if lciRes.Outliers[i].LCI < lciRes.Outliers[i-1].LCI {
			t.Fatalf("outliers not sorted strongest-first: %+v", lciRes.Outliers)
		}
	}
}

func TestResolveOpErrors(t *testing.T) {
	e := testEngine(t, Options{})
	snap, err := e.Snapshot(Key{Dataset: "tiny", Measure: "kcore"})
	if err != nil {
		t.Fatal(err)
	}
	results := e.Resolve(snap, []Op{
		{Op: "nonsense"},
		{Op: OpMCC, Item: 99},
		{Op: OpMCC, Item: -1},
		{Op: OpGCI},                              // missing measure_j
		{Op: OpGCI, MeasureJ: "ktruss"},          // vertex vs edge basis
		{Op: OpGCI, MeasureJ: "no-such-measure"}, // unknown measure
		{Op: OpAlphaCut, Alpha: 2},               // still answered
	})
	for i, r := range results[:6] {
		if r.Error == "" {
			t.Fatalf("op %d should have errored: %+v", i, r)
		}
	}
	if results[6].Error != "" || results[6].Count != 2 {
		t.Fatalf("healthy op failed alongside erroring ops: %+v", results[6])
	}
}

func TestTruncationLimits(t *testing.T) {
	e := testEngine(t, Options{})
	snap, err := e.Snapshot(Key{Dataset: "tiny", Measure: "degree"})
	if err != nil {
		t.Fatal(err)
	}
	results := e.Resolve(snap, []Op{
		{Op: OpAlphaCut, Alpha: 0, Limit: 2},
		{Op: OpAlphaCut, Alpha: 0, Limit: -1},
		{Op: OpMCC, Item: 0, Limit: 1},
	})
	for _, c := range results[0].Components {
		if len(c.Items) > 2 {
			t.Fatalf("limit 2 returned %d items", len(c.Items))
		}
		if c.Size > 2 && len(c.Items) == c.Size {
			t.Fatalf("truncation did not apply: %+v", c)
		}
	}
	for _, c := range results[1].Components {
		if len(c.Items) != c.Size {
			t.Fatalf("negative limit must be unlimited: %+v", c)
		}
	}
	if r := results[2]; len(r.Items) != 1 || r.ItemCount < 1 {
		t.Fatalf("mcc limit 1: %+v", r)
	}
}

// TestDatasetsIncludesLoadedNames pins that on-demand-loaded datasets
// show up in Datasets() alongside registered ones, surviving graph
// eviction (only the name is remembered).
func TestDatasetsIncludesLoadedNames(t *testing.T) {
	e := NewEngine(Options{MaxGraphs: 1, Loader: func(name string) (*graph.Graph, error) {
		return testGraph(), nil
	}})
	e.RegisterDataset("pinned", testGraph())
	for _, name := range []string{"lazyA", "lazyB"} { // lazyB evicts lazyA's graph
		if _, err := e.Snapshot(Key{Dataset: name, Measure: "degree"}); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"lazyA", "lazyB", "pinned"}
	if got := e.Datasets(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Datasets() = %v, want %v", got, want)
	}
}

// TestPanickedComputationDoesNotWedgeTheGroup pins the singleflight
// panic path: the flight entry is cleaned up, concurrent waiters get
// an error instead of blocking forever, and the next request for the
// key runs fresh.
func TestPanickedComputationDoesNotWedgeTheGroup(t *testing.T) {
	g := newGroup[string, int](4)
	errWaiterRan := fmt.Errorf("waiter led a fresh computation")

	leaderEntered := make(chan struct{})
	release := make(chan struct{})
	waiterDone := make(chan error, 1)
	go func() {
		defer func() { recover() }()
		g.Do("k", func() (int, error) {
			close(leaderEntered)
			<-release
			panic("analysis exploded")
		})
	}()
	<-leaderEntered
	go func() {
		// Either outcome is legal — joining the panicked flight (error)
		// or arriving after cleanup and leading a fresh computation —
		// but the call must return rather than block forever.
		_, err := g.Do("k", func() (int, error) { return 0, errWaiterRan })
		waiterDone <- err
	}()
	close(release)
	if err := <-waiterDone; err == nil {
		t.Fatal("waiter must get the panicked flight's error or its own fresh result")
	}
	if g.cached("k") {
		t.Fatal("panicked computation must not be cached")
	}
	// The key is usable again.
	v, err := g.Do("k", func() (int, error) { return 42, nil })
	if err != nil || v != 42 {
		t.Fatalf("Do after panic = (%d, %v)", v, err)
	}
}

// probeStore is a memStore whose Get on "slow" stalls after its first
// call, the way a peer fetch or disk decode does, and whose "stale"
// key is indexed but never decodes.
type probeStore struct {
	*memStore[string, int]
	slowGets atomic.Int32
	stalled  chan struct{}
	release  chan struct{}
}

func (s *probeStore) Get(key string) (int, bool) {
	switch key {
	case "slow":
		if s.slowGets.Add(1) > 1 {
			s.stalled <- struct{}{}
			<-s.release
		}
	case "stale":
		return 0, false
	}
	return s.memStore.Get(key)
}

func (s *probeStore) Contains(key string) bool {
	return key == "stale" || s.memStore.Contains(key)
}

// TestMissDoesNotProbeStoreUnderFlightLock pins that a miss probes a
// slow store once, and never while holding the flight lock that every
// other key's miss needs: a second probe that stalls must not hold up
// a miss on another key. An indexed entry that fails to load falls
// back to the flight.
func TestMissDoesNotProbeStoreUnderFlightLock(t *testing.T) {
	store := &probeStore{
		memStore: newMemStore[string, int](8),
		stalled:  make(chan struct{}, 1),
		release:  make(chan struct{}),
	}
	defer close(store.release)
	g := newGroupOver[string, int](store)

	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		g.Do("slow", func() (int, error) { return 1, nil })
	}()
	select {
	case <-slowDone:
	case <-store.stalled:
	}
	otherDone := make(chan struct{})
	go func() {
		defer close(otherDone)
		g.Do("other", func() (int, error) { return 2, nil })
	}()
	select {
	case <-otherDone:
	case <-time.After(2 * time.Second):
		t.Fatal("a miss on another key waited behind a stalled store probe")
	}
	<-slowDone
	if n := store.slowGets.Load(); n != 1 {
		t.Fatalf("one miss probed the store %d times, want 1", n)
	}

	v, err := g.Do("stale", func() (int, error) { return 3, nil })
	if err != nil || v != 3 {
		t.Fatalf("Do on an entry that fails to load = (%d, %v), want the flight's (3, nil)", v, err)
	}
}
