package query

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	scalarfield "repro"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/terrain"
)

// opsBatch exercises every operation family against one snapshot.
func opsBatch() []Op {
	return []Op{
		{Op: OpAlphaCut, Alpha: 2},
		{Op: OpPeaks, Alpha: 1},
		{Op: OpMCC, Item: 0},
		{Op: OpComponentOf, Item: 1, Alpha: 1},
		{Op: OpSpectrum},
		{Op: OpLCI, MeasureJ: "degree"},
		{Op: OpGCI, MeasureI: "kcore", MeasureJ: "triangles"},
	}
}

func resolveJSON(t *testing.T, e *Engine, snap *Snapshot) []byte {
	t.Helper()
	out, err := json.Marshal(Response{Snapshot: snap.Info(), Results: e.Resolve(snap, opsBatch())})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSnapshotCodecServesIdenticalResults: a decoded snapshot must
// answer the full operation vocabulary byte-identically to the
// original — the property the disk store and the shard fleet rely on.
func TestSnapshotCodecServesIdenticalResults(t *testing.T) {
	for _, key := range []Key{
		{Dataset: "tiny", Measure: "kcore", Color: "degree"},
		{Dataset: "tiny", Measure: "ktruss"},
		{Dataset: "tiny", Measure: "degree", Bins: 3},
	} {
		e := testEngine(t, Options{})
		snap, err := e.Snapshot(key)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := EncodeSnapshot(&buf, snap); err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeSnapshot(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if decoded.Key != key || decoded.Seq != snap.Seq || decoded.Edge != snap.Edge {
			t.Fatalf("decoded identity %+v (seq %d) differs from %+v (seq %d)",
				decoded.Key, decoded.Seq, key, snap.Seq)
		}
		if !reflect.DeepEqual(decoded.Info(), snap.Info()) {
			t.Fatalf("decoded info %+v != %+v", decoded.Info(), snap.Info())
		}
		want := resolveJSON(t, e, snap)
		got := resolveJSON(t, e, decoded)
		if !bytes.Equal(want, got) {
			t.Fatalf("key %+v: decoded snapshot answers differently:\nwant %s\ngot  %s", key, want, got)
		}
	}
}

// TestDiskStorePersistsAcrossRestart is the acceptance criterion's
// restart half: a second engine over the same directory serves the
// snapshot without re-analyzing, with byte-identical query responses.
func TestDiskStorePersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	key := Key{Dataset: "tiny", Measure: "kcore", Color: "degree"}

	store1, err := NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	e1 := NewEngine(Options{Store: store1})
	e1.RegisterDataset("tiny", testGraph())
	snap1, err := e1.Snapshot(key)
	if err != nil {
		t.Fatal(err)
	}
	if got := e1.AnalysisCount(); got != 1 {
		t.Fatalf("first engine ran %d analyses, want 1", got)
	}
	want := resolveJSON(t, e1, snap1)
	adoptKey := Key{Dataset: "tiny", Measure: "degree"}
	adopt1, err := e1.Snapshot(adoptKey)
	if err != nil {
		t.Fatal(err)
	}
	wantAdopt := resolveJSON(t, e1, adopt1)

	// "Restart": fresh store over the same directory, fresh engine.
	store2, err := NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !store2.Contains(key) {
		t.Fatal("restarted store does not index the persisted snapshot")
	}
	e2 := NewEngine(Options{Store: store2})
	e2.RegisterDataset("tiny", testGraph())
	snap2, err := e2.Snapshot(key)
	if err != nil {
		t.Fatal(err)
	}
	if got := e2.AnalysisCount(); got != 0 {
		t.Fatalf("restarted engine re-analyzed (%d analyses), want 0 (disk hit)", got)
	}
	if snap2.Seq != snap1.Seq {
		t.Fatalf("restored snapshot seq %d != original %d", snap2.Seq, snap1.Seq)
	}
	got := resolveJSON(t, e2, snap2)
	if !bytes.Equal(want, got) {
		t.Fatalf("disk-restored snapshot answers differently:\nwant %s\ngot  %s", want, got)
	}

	// A second hit comes from the open-entry LRU: same pointer.
	snap3, err := e2.Snapshot(key)
	if err != nil {
		t.Fatal(err)
	}
	if snap3 != snap2 {
		t.Fatal("second disk-store hit did not reuse the open entry")
	}

	// A cold hit on a second key of the dataset adopts the open
	// entry's heap graph instead of reading its own copy.
	adopt2, err := e2.Snapshot(adoptKey)
	if err != nil {
		t.Fatal(err)
	}
	if got := e2.AnalysisCount(); got != 0 {
		t.Fatalf("restarted engine re-analyzed (%d analyses), want 0 (disk hit)", got)
	}
	if adopt2.Graph != snap2.Graph {
		t.Fatal("cold hit beside an open entry did not adopt its graph")
	}
	if got := resolveJSON(t, e2, adopt2); !bytes.Equal(wantAdopt, got) {
		t.Fatalf("adopting snapshot answers differently:\nwant %s\ngot  %s", wantAdopt, got)
	}
}

// TestDiskStoreIndexesMetaPastPrefix: the index scan reads each file's
// first snapshotKeyPrefix bytes, and a meta section longer than that
// still indexes, from the whole file.
func TestDiskStoreIndexesMetaPastPrefix(t *testing.T) {
	dir := t.TempDir()
	key := Key{Dataset: strings.Repeat("d", 2*snapshotKeyPrefix), Measure: "kcore"}
	store1, err := NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	e1 := NewEngine(Options{Store: store1})
	e1.RegisterDataset(key.Dataset, testGraph())
	if _, err := e1.Snapshot(key); err != nil {
		t.Fatal(err)
	}
	store2, err := NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !store2.Contains(key) {
		t.Fatal("restarted store does not index a snapshot whose meta section passes the prefix")
	}
}

// TestDiskStoreBinsBound: a bins count outside the snapshot codec's
// range is a ClientError before the store is consulted, so it neither
// asks peers (which would answer 400 and count against their breakers)
// nor writes a file the store could not index after a restart. The
// largest admitted count round-trips through a restart as a disk hit.
func TestDiskStoreBinsBound(t *testing.T) {
	dir := t.TempDir()
	disk, err := NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	peerLookups := 0
	pf := &PeerFetcher{Self: "a", Peers: func() map[string]string {
		peerLookups++
		return nil
	}}
	e1 := NewEngine(Options{Store: disk, Hydrate: pf.Fetch})
	e1.RegisterDataset("tiny", testGraph())
	for _, bins := range []int{-1, scalarfield.MaxSimplifyBins + 1} {
		_, err := e1.Snapshot(Key{Dataset: "tiny", Measure: "kcore", Bins: bins})
		var ce *ClientError
		if !errors.As(err, &ce) {
			t.Fatalf("bins %d: err %v, want a ClientError", bins, err)
		}
	}
	if got := e1.AnalysisCount(); got != 0 || peerLookups != 0 {
		t.Fatalf("out-of-range bins ran %d analyses and %d peer lookups, want 0 and 0", got, peerLookups)
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Fatalf("out-of-range bins wrote %d files, want 0", len(files))
	}

	key := Key{Dataset: "tiny", Measure: "kcore", Bins: scalarfield.MaxSimplifyBins}
	snap, err := e1.Snapshot(key)
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()
	store2, err := NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	e2 := NewEngine(Options{Store: store2})
	e2.RegisterDataset("tiny", testGraph())
	snap, err = e2.Snapshot(key)
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()
	if got := e2.AnalysisCount(); got != 0 {
		t.Fatalf("restarted engine ran %d analyses for bins %d, want 0 (disk hit)", got, key.Bins)
	}
}

// TestDiskStoreColdHitsCoalesce: concurrent Gets for a disk-indexed
// key must share one decode — every caller receives the same snapshot
// pointer, which only the coalesced path can produce.
func TestDiskStoreColdHitsCoalesce(t *testing.T) {
	dir := t.TempDir()
	store1, err := NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{Store: store1})
	e.RegisterDataset("tiny", testGraph())
	key := Key{Dataset: "tiny", Measure: "kcore"}
	if _, err := e.Snapshot(key); err != nil {
		t.Fatal(err)
	}

	// Fresh store over the same dir: the key is indexed but cold.
	store2, err := NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 16
	snaps := make([]*Snapshot, workers)
	var wg sync.WaitGroup
	var start sync.WaitGroup
	start.Add(1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			start.Wait()
			snap, ok := store2.Get(key)
			if !ok {
				t.Error("cold Get missed an indexed key")
				return
			}
			snaps[w] = snap
		}(w)
	}
	start.Done()
	wg.Wait()
	for w, snap := range snaps {
		if snap != snaps[0] {
			t.Fatalf("worker %d decoded its own copy — cold hits did not coalesce", w)
		}
	}
}

// TestDiskStoreReapsTempFiles: a crash mid-Add leaves a tmp- file; the
// next startup scan must remove it.
func TestDiskStoreReapsTempFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "tmp-crashed"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDiskStore(dir, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "tmp-crashed")); !os.IsNotExist(err) {
		t.Fatal("startup scan did not reap the orphaned tmp- file")
	}
}

// TestDiskStoreEvictRemovesFiles: Invalidate through a disk store must
// remove the persisted files, so a restart cannot resurrect stale
// snapshots.
func TestDiskStoreEvictRemovesFiles(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{Store: store})
	e.RegisterDataset("tiny", testGraph())
	key := Key{Dataset: "tiny", Measure: "kcore"}
	if _, err := e.Snapshot(key); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*"+snapExt))
	if len(files) != 1 {
		t.Fatalf("%d snapshot files after one analysis, want 1", len(files))
	}
	e.Invalidate("tiny")
	if store.Contains(key) || store.Len() != 0 {
		t.Fatal("store still contains the key after Invalidate")
	}
	files, _ = filepath.Glob(filepath.Join(dir, "*"+snapExt))
	if len(files) != 0 {
		t.Fatalf("%d snapshot files survived Invalidate, want 0", len(files))
	}
}

// TestDiskStoreCorruptFileIsAMiss: a torn or corrupt snapshot file
// must read as a cache miss (and be dropped), never as an error or a
// wrong answer.
func TestDiskStoreCorruptFileIsAMiss(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{Store: store})
	e.RegisterDataset("tiny", testGraph())
	key := Key{Dataset: "tiny", Measure: "kcore"}
	if _, err := e.Snapshot(key); err != nil {
		t.Fatal(err)
	}

	// Truncate the file behind the store's back and drop the open
	// entry by pushing other keys through the small LRU.
	files, _ := filepath.Glob(filepath.Join(dir, "*"+snapExt))
	if len(files) != 1 {
		t.Fatalf("%d files, want 1", len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	store.mu.Lock()
	store.open.evict(func(Key) bool { return true })
	store.mu.Unlock()

	if _, ok := store.Get(key); ok {
		t.Fatal("corrupt snapshot file served as a hit")
	}
	// The bad bytes are quarantined for inspection, not deleted — and
	// the original path is gone, so no lookup ever re-decodes them.
	if _, err := os.Stat(files[0]); !os.IsNotExist(err) {
		t.Fatal("corrupt snapshot file left at its original path")
	}
	quarantined := filepath.Join(dir, corruptPrefix+filepath.Base(files[0]))
	if _, err := os.Stat(quarantined); err != nil {
		t.Fatalf("corrupt snapshot file was not quarantined: %v", err)
	}
	// A second lookup is a plain miss: the index entry is gone, no
	// decode is attempted, the quarantined file stays put.
	if _, ok := store.Get(key); ok {
		t.Fatal("quarantined key served as a hit")
	}
	// The engine transparently re-analyzes.
	if _, err := e.Snapshot(key); err != nil {
		t.Fatal(err)
	}
	if got := e.AnalysisCount(); got != 2 {
		t.Fatalf("%d analyses after corrupt-file miss, want 2", got)
	}
	// A restarted store skips the quarantined file instead of
	// re-indexing (or deleting) it.
	store2, err := NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = store2
	if _, err := os.Stat(quarantined); err != nil {
		t.Fatalf("startup scan disturbed the quarantined file: %v", err)
	}

	// With a donor open, a file whose graph section differs from the
	// donor's graph by one byte fails the comparison, takes the full
	// verify, and is quarantined; the donor's reference taken for the
	// decode is given back.
	donorKey := Key{Dataset: "tiny", Measure: "degree"}
	donorSnap, err := e.Snapshot(donorKey)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := e.Snapshot(key)
	if err != nil {
		t.Fatal(err)
	}
	mstore := mmapStoreOver(t, donorSnap, victim)
	path := filepath.Join(mstore.dir, SnapshotFileName(key))
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	arena := graph.ArenaWireBytes(victim.Graph)
	at := bytes.Index(data, arena)
	if at < 0 {
		t.Fatal("stored snapshot does not hold the graph's arena")
	}
	data[at+len(arena)-1] ^= 0x80 // the last edge's endpoint goes negative
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	donor, ok := mstore.Get(donorKey)
	if !ok {
		t.Fatal("mmap store misses the donor snapshot")
	}
	refs := donor.ref.refs.Load()
	if _, ok := mstore.Get(key); ok {
		t.Fatal("graph section one byte off the donor's served as a hit")
	}
	if _, err := os.Stat(filepath.Join(mstore.dir, corruptPrefix+SnapshotFileName(key))); err != nil {
		t.Fatalf("graph section one byte off the donor's was not quarantined: %v", err)
	}
	if got := donor.ref.refs.Load(); got != refs {
		t.Fatalf("donor holds %d references after the failed decode, want %d", got, refs)
	}
	donor.Release()
	mstore.DropOpen()
}

// TestDiskStoreQuarantinesOtherVersions: a stored file whose container
// version is not 3 (a leftover version 1 or 2 file) is quarantined on
// its first cold hit and costs one re-analysis, whose version 3 file
// then serves the next cold hit.
func TestDiskStoreQuarantinesOtherVersions(t *testing.T) {
	for _, version := range []byte{1, 2} {
		for _, mmap := range []bool{false, true} {
			dir := t.TempDir()
			key := Key{Dataset: "tiny", Measure: "kcore", Color: "degree"}
			opts := DiskStoreOptions{MmapGraphs: mmap}
			// restart opens a fresh store over dir behind a fresh engine
			// and serves key from it, returning that engine.
			restart := func() *Engine {
				t.Helper()
				store, err := NewDiskStoreOptions(dir, opts)
				if err != nil {
					t.Fatal(err)
				}
				e := NewEngine(Options{Store: store})
				e.RegisterDataset("tiny", testGraph())
				snap, err := e.Snapshot(key)
				if err != nil {
					t.Fatal(err)
				}
				snap.Release()
				return e
			}
			restart()
			path := filepath.Join(dir, SnapshotFileName(key))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[4] = version
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			if got := restart().AnalysisCount(); got != 1 {
				t.Fatalf("mmap=%v: %d analyses over a version %d file, want 1", mmap, got, version)
			}
			quarantined, err := os.ReadFile(filepath.Join(dir, corruptPrefix+SnapshotFileName(key)))
			if err != nil {
				t.Fatalf("mmap=%v: version %d file was not quarantined: %v", mmap, version, err)
			}
			if quarantined[4] != version {
				t.Fatalf("mmap=%v: quarantined file has version %d, want %d", mmap, quarantined[4], version)
			}
			if got := restart().AnalysisCount(); got != 0 {
				t.Fatalf("mmap=%v: %d analyses after re-analysis, want 0 (disk hit)", mmap, got)
			}
			if data, err := os.ReadFile(path); err != nil || data[4] != 3 {
				t.Fatalf("mmap=%v: re-analysis did not store a version 3 file (err %v)", mmap, err)
			}
		}
	}
}

// TestDiskStoreQuarantinesNaNTree: a stored file whose tree holds a
// NaN scalar, which no monotonicity comparison fails, fails its tree
// checksum, is quarantined on its first cold hit and costs one
// re-analysis that answers byte-identically to the original, heap and
// mmap alike.
func TestDiskStoreQuarantinesNaNTree(t *testing.T) {
	for _, mmap := range []bool{false, true} {
		dir := t.TempDir()
		key := Key{Dataset: "tiny", Measure: "kcore", Color: "degree"}
		opts := DiskStoreOptions{MmapGraphs: mmap}
		engine := func() *Engine {
			t.Helper()
			store, err := NewDiskStoreOptions(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			e := NewEngine(Options{Store: store})
			e.RegisterDataset("tiny", testGraph())
			return e
		}
		e := engine()
		snap, err := e.Snapshot(key)
		if err != nil {
			t.Fatal(err)
		}
		want := resolveJSON(t, e, snap)
		var tree bytes.Buffer
		if _, err := snap.Terrain.Tree.WriteTo(&tree); err != nil {
			t.Fatal(err)
		}
		snap.Release()

		path := filepath.Join(dir, SnapshotFileName(key))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		at := bytes.Index(data, tree.Bytes())
		if at < 0 {
			t.Fatal("stored snapshot does not hold its tree")
		}
		// The root's scalar follows the 16-byte SFST header.
		binary.LittleEndian.PutUint64(data[at+16:], math.Float64bits(math.NaN()))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		e = engine()
		got, err := e.Snapshot(key)
		if err != nil {
			t.Fatal(err)
		}
		if n := e.AnalysisCount(); n != 1 {
			t.Fatalf("mmap=%v: %d analyses over a NaN tree, want 1", mmap, n)
		}
		if _, err := os.Stat(filepath.Join(dir, corruptPrefix+SnapshotFileName(key))); err != nil {
			t.Fatalf("mmap=%v: NaN tree was not quarantined: %v", mmap, err)
		}
		if body := resolveJSON(t, e, got); !bytes.Equal(body, want) {
			t.Fatalf("mmap=%v: re-analysis answers differently:\nwant %s\ngot  %s", mmap, want, body)
		}
		got.Release()
	}
}

// blockRun is one run of the invalidation-race test: the blocking
// measure reports on entered when an analysis has entered it, and
// parks there until the run closes gate.
type blockRun struct {
	gate, entered chan struct{}
}

// blockingMeasure is registered once for the invalidation-race test;
// each run of the test installs a fresh blockRun, so the test can run
// any number of times in one process.
var (
	blockCurrent atomic.Pointer[blockRun]
	blockOnce    sync.Once
)

// registerBlockingMeasure registers the measure and installs a fresh
// run for it.
func registerBlockingMeasure() *blockRun {
	blockOnce.Do(func() {
		scalarfield.RegisterMeasure("test-blocking", false,
			"test-only: blocks until the race test releases it",
			func(g *scalarfield.Graph) []float64 {
				run := blockCurrent.Load()
				select {
				case run.entered <- struct{}{}:
				default:
				}
				<-run.gate
				vals := make([]float64, g.NumVertices())
				for v := range vals {
					vals[v] = float64(g.Degree(int32(v)))
				}
				return vals
			})
	})
	run := &blockRun{gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	blockCurrent.Store(run)
	return run
}

// TestInvalidateRacingInFlightAnalysis is the satellite regression: an
// Invalidate that lands while an analysis is in flight must prevent
// the completing flight from re-inserting its (now stale) snapshot.
// Run under -race in CI.
func TestInvalidateRacingInFlightAnalysis(t *testing.T) {
	run := registerBlockingMeasure()
	e := testEngine(t, Options{})
	key := Key{Dataset: "tiny", Measure: "test-blocking"}

	type result struct {
		snap *Snapshot
		err  error
	}
	done := make(chan result, 1)
	go func() {
		snap, err := e.Snapshot(key)
		done <- result{snap, err}
	}()

	<-run.entered        // the analysis is inside the measure now
	e.Invalidate("tiny") // race: invalidation lands mid-flight
	close(run.gate)      // let the analysis complete
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	// The flight's waiter gets its (stale) snapshot — it asked before
	// the invalidation — but the cache must NOT have kept it.
	if e.Cached(key) {
		t.Fatal("stale snapshot was re-inserted after Invalidate")
	}

	// The next request re-analyzes under the new generation and caches.
	snap2, err := e.Snapshot(key)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.AnalysisCount(); got != 2 {
		t.Fatalf("%d analyses, want 2 (stale flight + re-analysis)", got)
	}
	if snap2.Seq == r.snap.Seq {
		t.Fatal("re-analysis after Invalidate kept the stale Seq")
	}
	if !e.Cached(key) {
		t.Fatal("fresh snapshot was not cached")
	}
}

// mallocs counts the heap allocations f makes.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestDecodeAndResolveNeverBuildGeometry: decoding a snapshot, heap or
// mapped, and resolving every tree-only op leaves the terrain layout
// unbuilt — the first Rects call afterwards still pays a full build.
func TestDecodeAndResolveNeverBuildGeometry(t *testing.T) {
	g, err := datasets.Generate("GrQc", 0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{})
	e.RegisterDataset("grqc", g)
	ops := []Op{
		{Op: OpSpectrum},
		{Op: OpMCC, Item: 0},
		{Op: OpComponentOf, Item: 1, Alpha: 1},
		{Op: OpAlphaCut, Alpha: 2},
		{Op: OpPeaks, Alpha: 1},
	}
	for _, key := range []Key{
		{Dataset: "grqc", Measure: "clustering", Color: "degree"},
		{Dataset: "grqc", Measure: "ktruss"},
	} {
		snap, err := e.Snapshot(key)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := EncodeSnapshot(&buf, snap); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "snap")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		heap, err := DecodeSnapshot(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		mapped, err := DecodeSnapshotFileMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		defer mapped.Release()
		// The fewest allocations of several fresh builds: other
		// goroutines' allocations can only add to one build's count.
		build := uint64(math.MaxUint64)
		for range 5 {
			fresh := terrain.NewLayout(snap.Terrain.Tree, terrain.LayoutOptions{})
			build = min(build, mallocs(func() { fresh.Rects() }))
		}
		for name, dec := range map[string]*Snapshot{"heap": heap, "mapped": mapped} {
			e.Resolve(dec, ops)
			if got := mallocs(func() { dec.Terrain.Layout.Rects() }); got < build {
				t.Errorf("%v %s: first Rects made %d allocs, a fresh build makes %d: decode or resolve built the geometry",
					key, name, got, build)
			}
			if got := testing.AllocsPerRun(100, func() { dec.Terrain.Layout.Rects() }); got != 0 {
				t.Errorf("%v %s: a built layout's Rects made %.0f allocs, want 0", key, name, got)
			}
		}
	}
}
