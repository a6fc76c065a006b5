package main

// The perf-trajectory experiment: a fixed set of hot-path kernels —
// tree construction with the default and pooled sweep drivers, the
// radix sweep order and contour spectrum of a fractional field, the
// triangle measures (clustering and k-truss) on the oriented triangle
// listing, the onion decomposition, the distance-based centrality
// kernels on the batched MS-BFS engine (closeness, harmonic,
// eccentricity, k-hop, and the early-cutoff diameter fold), the
// betweenness kernels on the batched MS-Brandes engine (vertex, edge,
// sampled, and sampled with closeness in one shared pass), one row per
// kernel, the snapshot-cache hit/miss paths
// of internal/query, its op resolution over the viewer's query mix and
// the encoding of those answers, and the snapshot wire codec (encode
// and decode throughput for the disk store and the shard fabric, and
// the SFST tree decode beneath it) —
// timed with allocation counts and written as machine-readable JSON
// (-benchout, BENCH_8.json by default), so the effect of each PR on
// the hot path is tracked as checked-in evidence rather than folklore.
// CI runs it with -benchiters 1 as a smoke test; locally, higher
// iteration counts give stable numbers.
//
// BENCH_8.json methodology: generated with
//
//	go build -o experiments ./cmd/experiments
//	GOMAXPROCS=2 ./experiments -exp bench -scale 2 -benchiters 3 \
//	    -out . -benchout BENCH_8.json
//
// i.e. the GrQc stand-in at twice the published size (~10k vertices),
// built with go build so the file's host block carries the commit
// (go run leaves vcs_revision empty). The host block also records the
// core count, OS/architecture and Go version; BENCH_4–7.json were taken
// at GOMAXPROCS=4 on a host whose core count was not recorded, so their
// msbfs/* and msbrandes/* rows are not comparable with BENCH_8's.
// Every measure kernel picks its own worker count (par.Workers), so
// GOMAXPROCS sets the core count of the msbfs/* and msbrandes/* rows;
// the triangles/* and measures/onion rows are serial. Each row is one
// mean over -benchiters runs after a warm-up call, with no spread.
// BENCH_4–7.json also carry per-source baseline, *-1worker, and
// vertex-tree/serial-sort rows; those kernels now live only in test
// code as oracles, and the checked-in files keep their numbers as
// history. The snapshot-codec rows time the full container — graph
// CSR, fields, super tree and its index, spectrum, checksums — so
// encode ns/op over the snapshot's byte size is the disk-store insert
// cost and the upper bound a shared cache tier pays per miss.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	scalarfield "repro"
	"repro/internal/contour"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/measures"
	"repro/internal/query"
	"repro/internal/terrain"
)

var benchIters = flag.Int("benchiters", 10,
	"iterations per kernel in -exp bench (1 = smoke run)")

var benchOut = flag.String("benchout", "BENCH_8.json",
	"output file for -exp bench results (joined to -out unless absolute)")

func init() {
	// Opt-in: timing kernels on a heap warmed by other experiments
	// would be misleading, and -exp all should stay table-regeneration
	// fast. CI and local perf runs invoke it by name.
	registerOptIn("bench", "hot-path kernel timings + allocs, written to -benchout", runBench)
}

type benchResult struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// benchHost records where a bench file was taken, so rows from
// different hosts, toolchains and commits are not compared as if alike.
type benchHost struct {
	NumCPU    int    `json:"num_cpu"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	GoVersion string `json:"go_version"`
	// Revision and Modified are the vcs.revision and vcs.modified build
	// settings: the commit the binary was built from and whether the
	// tree had uncommitted changes. Both are empty when the build
	// carries no VCS stamp (go run does not stamp; go build inside the
	// checkout does).
	Revision string `json:"vcs_revision"`
	Modified string `json:"vcs_modified"`
}

func currentHost() benchHost {
	h := benchHost{
		NumCPU:    runtime.NumCPU(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		GoVersion: runtime.Version(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			switch kv.Key {
			case "vcs.revision":
				h.Revision = kv.Value
			case "vcs.modified":
				h.Modified = kv.Value
			}
		}
	}
	return h
}

// measureKernel times fn over iters runs after one warm-up call,
// reading allocation counters around the loop. A kernel error aborts
// the measurement — a failing pipeline must never be recorded as a
// plausible timing. Allocations from other goroutines are included,
// so parallel kernels over-report slightly; the serial hot-path
// kernels this file exists to track run on one goroutine and count
// exactly.
func measureKernel(name string, iters int, fn func() error) (benchResult, error) {
	if err := fn(); err != nil { // warm-up: pooled kernels size their buffers here
		return benchResult{}, fmt.Errorf("%s: %w", name, err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if err := fn(); err != nil {
			return benchResult{}, fmt.Errorf("%s: %w", name, err)
		}
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	n := float64(iters)
	return benchResult{
		Name:        name,
		Iters:       iters,
		NsPerOp:     float64(elapsed.Nanoseconds()) / n,
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / n,
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / n,
	}, nil
}

// resolveBatch is one snapshot's share of the query/resolve mix.
type resolveBatch struct {
	snap *query.Snapshot
	ops  []query.Op
}

// interactOps returns n ops on snap in the viewer's mix: alpha_cut,
// peaks, component_of, mcc and spectrum in turn, α uniform over the
// snapshot's scalar range, items uniform, default list limits.
func interactOps(snap *query.Snapshot, n int, rng *rand.Rand) []query.Op {
	lo, hi := slices.Min(snap.Values), slices.Max(snap.Values)
	kinds := []string{query.OpAlphaCut, query.OpPeaks, query.OpComponentOf, query.OpMCC, query.OpSpectrum}
	ops := make([]query.Op, n)
	for i := range ops {
		ops[i] = query.Op{
			Op:    kinds[i%len(kinds)],
			Alpha: lo + rng.Float64()*(hi-lo),
			Item:  rng.Int31n(int32(len(snap.Values))),
		}
	}
	return ops
}

// benchColdHit opens a fresh disk store over dir (cold open-cache) and
// serves one snapshot from disk, balancing the reference it receives.
func benchColdHit(dir string, key query.Key, mmap bool) error {
	store, err := query.NewDiskStoreOptions(dir, query.DiskStoreOptions{MaxOpen: 4, MmapGraphs: mmap})
	if err != nil {
		return err
	}
	snap, ok := store.Get(key)
	if !ok {
		return fmt.Errorf("diskstore cold hit (mmap=%v): snapshot missing", mmap)
	}
	snap.Release()
	// Dropping the open LRU's reference unmaps before the next
	// iteration maps again; the file stays for that iteration.
	store.DropOpen()
	return nil
}

func runBench(cfg config) error {
	g, err := datasets.Generate("GrQc", cfg.scale, cfg.seed)
	if err != nil {
		return err
	}
	fmt.Printf("GrQc stand-in at scale %g: %d vertices, %d edges; %d iters/kernel\n",
		cfg.scale, g.NumVertices(), g.NumEdges(), *benchIters)

	kc := measures.CoreNumbersFloat(g)
	vf := core.MustVertexField(g, kc)
	ef := core.MustEdgeField(g, measures.TrussNumbersFloat(g))
	cc := measures.ClusteringCoefficients(g)
	clusteringTree := core.VertexSuperTree(core.MustVertexField(g, cc))
	binnedTree := core.VertexSuperTree(core.SimplifyVertexField(vf, 64))
	var pool core.TreeBuilder
	analyzer := scalarfield.NewAnalyzer()
	warmEngine := query.NewEngine(query.Options{})
	warmEngine.RegisterDataset("GrQc", g)
	warmKey := query.Key{Dataset: "GrQc", Measure: "kcore"}

	// One snapshot, encoded once, for the wire-codec kernels: encode
	// throughput is the disk-store insert cost, decode the cold-hit and
	// restart-index cost.
	warmSnap, err := warmEngine.Snapshot(warmKey)
	if err != nil {
		return err
	}
	var encodedSnap bytes.Buffer
	if err := query.EncodeSnapshot(&encodedSnap, warmSnap); err != nil {
		return err
	}
	fmt.Printf("snapshot wire size: %d bytes (%d vertices, %d edges, %d super nodes)\n",
		encodedSnap.Len(), g.NumVertices(), g.NumEdges(), warmSnap.Terrain.Tree.Len())
	var encodedTree bytes.Buffer
	if _, err := warmSnap.Terrain.Tree.WriteTo(&encodedTree); err != nil {
		return err
	}

	// The raw graph codec: decode-csr2 is header-validate + one O(V+E)
	// panic-safety scan over an aliased arena (no allocation per edge);
	// decode-csr2-trusted is the O(header) alias for already-verified
	// local bytes.
	arenaWire := graph.ArenaWireBytes(g)

	// On-disk artifacts for the cold-hit rows: one snapshot directory
	// shared by the copy and mmap stores, and one standalone snapshot
	// file for the zero-copy file decoder. BytesPerOp is the RSS story:
	// the mmap rows never copy the graph section onto the heap, so
	// their heap traffic is the decode scaffolding alone.
	benchDir, err := os.MkdirTemp("", "bench-store-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(benchDir)
	seedStore, err := query.NewDiskStore(benchDir, 4)
	if err != nil {
		return err
	}
	seedStore.Add(warmKey, warmSnap)
	if !seedStore.Contains(warmKey) {
		return fmt.Errorf("bench: disk store did not persist the warm snapshot")
	}
	// A second key of the dataset for the adopting cold-hit row: a
	// one-entry open LRU alternating between the two keys makes every
	// Get a cold hit with the other key open as its donor.
	adoptKey := query.Key{Dataset: "GrQc", Measure: "degree"}
	adoptSnap, err := warmEngine.Snapshot(adoptKey)
	if err != nil {
		return err
	}
	seedStore.Add(adoptKey, adoptSnap)
	adoptStore, err := query.NewDiskStoreOptions(benchDir, query.DiskStoreOptions{MaxOpen: 1, MmapGraphs: true})
	if err != nil {
		return err
	}
	defer adoptStore.DropOpen()
	adoptKeys := [2]query.Key{warmKey, adoptKey}
	adoptHits := 0
	var adoptGraph *graph.Graph
	// Kept out of benchDir so the store's directory index never sees it.
	fileDir, err := os.MkdirTemp("", "bench-snap-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(fileDir)
	snapPath := filepath.Join(fileDir, "warm.snapshot")
	if err := os.WriteFile(snapPath, encodedSnap.Bytes(), 0o644); err != nil {
		return err
	}

	// The viewer's query mix on the warm engine's kcore and ktruss
	// snapshots, for the query/resolve row.
	var resolveMix []resolveBatch
	for i, m := range []string{"kcore", "ktruss"} {
		snap, err := warmEngine.Snapshot(query.Key{Dataset: "GrQc", Measure: m})
		if err != nil {
			return err
		}
		resolveMix = append(resolveMix, resolveBatch{snap, interactOps(snap, 100, rand.New(rand.NewSource(int64(i))))})
	}
	// The mix's answers, for the query/encode row.
	var encodeMix []query.Response
	for _, b := range resolveMix {
		encodeMix = append(encodeMix, query.Response{Snapshot: b.snap.Info(), Results: warmEngine.Resolve(b.snap, b.ops)})
	}
	var encodeBuf []byte

	ok := func(fn func()) func() error {
		return func() error { fn(); return nil }
	}
	kernels := []struct {
		name string
		fn   func() error
	}{
		{"vertex-tree/parallel-default", ok(func() { core.BuildVertexTree(vf) })},
		{"vertex-tree/pooled", ok(func() { pool.BuildVertexTree(vf) })},
		{"edge-tree/parallel-default", ok(func() { core.BuildEdgeTree(ef) })},
		{"edge-tree/pooled", ok(func() { pool.BuildEdgeTree(ef) })},
		{"supertree/pooled", ok(func() { pool.VertexSuperTree(vf) })},
		// The rows above sweep integer fields (counting sort); these two
		// time the fractional path: the radix sweep order of the
		// clustering field and the contour spectrum of its super tree.
		{"sweep-order/clustering", ok(func() { core.SweepOrder(cc) })},
		{"contour/spectrum", ok(func() { contour.NewSpectrum(clusteringTree) })},
		// The spectrum of the kcore field binned into 64 bins: a binned
		// key's cold hit rebuilds a spectrum of this shape, thousands of
		// super nodes on a few fractional levels.
		{"contour/spectrum-binned", ok(func() { contour.NewSpectrum(binnedTree) })},
		// The terrain geometry of the clustering tree, built by the first
		// Rects call: analyses and snapshot decodes defer it, so the
		// viewer pays it on a terrain's first render.
		{"terrain/layout", ok(func() { terrain.NewLayout(clusteringTree, terrain.LayoutOptions{}).Rects() })},
		// The triangle measures on the oriented listing: clustering is
		// one counting pass; ktruss lists each triangle once into a
		// flat array, scatters it into the per-edge triangle CSR by
		// counting and runs the bucket peel over it.
		{"triangles/clustering", ok(func() { measures.ClusteringCoefficients(g) })},
		{"triangles/ktruss", ok(func() { measures.TrussNumbers(g) })},
		// The onion decomposition: the k-core bucket peel, counting its
		// rounds as layers (59 layers on GrQc at scale 2).
		{"measures/onion", ok(func() { measures.OnionLayers(g) })},
		// Distance-based centralities on the batched MS-BFS engine; the
		// shared row computes both fields from one traversal, the
		// Analyzer's multi-field fast path.
		{"msbfs/closeness", ok(func() { measures.ClosenessCentrality(g) })},
		{"msbfs/harmonic", ok(func() { measures.HarmonicCentrality(g) })},
		{"msbfs/eccentricity", ok(func() { measures.Eccentricity(g) })},
		{"msbfs/khop", ok(func() { measures.KHopSize(g) })},
		{"msbfs/closeness+harmonic-shared", func() error {
			if _, shared := measures.SharedDistanceFields(g, []string{"closeness", "harmonic"}); !shared {
				return fmt.Errorf("shared distance pass refused closeness+harmonic")
			}
			return nil
		}},
		{"diameter/early-cutoff", ok(func() { measures.ComponentDiameter(g) })},
		// Betweenness on the batched MS-Brandes engine: exact vertex and
		// edge fields, the registry's 512-pivot sampled path, and a
		// 64-pivot (single-batch) sample.
		{"msbrandes/betweenness", ok(func() { measures.BetweennessCentrality(g) })},
		{"msbrandes/edgebetweenness", ok(func() { measures.EdgeBetweennessCentrality(g) })},
		{"msbrandes/sampled-512", ok(func() { measures.ApproxBetweennessCentrality(g, 512, 1) })},
		// The centrality terrain's two fields from one shared pass: the
		// pivots' closeness folds from the MS-Brandes forward phase, and
		// MS-BFS runs only from the other vertices.
		{"msbrandes/sampled-512+closeness-shared", func() error {
			if _, shared := measures.SharedDistanceFields(g, []string{"betweenness-sampled", "closeness"}); !shared {
				return fmt.Errorf("shared pass refused betweenness-sampled+closeness")
			}
			return nil
		}},
		{"betweenness/sampled-64", ok(func() { measures.ApproxBetweennessCentrality(g, 64, 1) })},
		{"analyze/kcore-pooled", func() error {
			_, err := analyzer.Analyze(g, "kcore", scalarfield.AnalyzeOptions{})
			return err
		}},
		// Snapshot-cache paths: a miss pays the full coalesced analysis
		// (engine construction included, isolating it from warm pools);
		// a hit is the steady-state concurrent read path — an LRU probe
		// returning an immutable snapshot.
		{"snapshot-cache/miss", func() error {
			e := query.NewEngine(query.Options{})
			e.RegisterDataset("GrQc", g)
			_, err := e.Snapshot(query.Key{Dataset: "GrQc", Measure: "kcore"})
			return err
		}},
		{"snapshot-cache/hit", func() error {
			_, err := warmEngine.Snapshot(warmKey)
			return err
		}},
		// Op resolution on cached snapshots, the viewer's steady state:
		// one run answers 100 ops on each of kcore and ktruss, an equal
		// share of alpha_cut, peaks, component_of, mcc and spectrum, α
		// uniform over the key's scalar range, items uniform, default
		// list limits (see interactOps).
		{"query/resolve", ok(func() {
			for _, b := range resolveMix {
				warmEngine.Resolve(b.snap, b.ops)
			}
		})},
		// The served encoding of the query/resolve mix's answers: one
		// response per snapshot, appended into a reused buffer as the
		// batch handler does.
		{"query/encode", func() (err error) {
			for i := range encodeMix {
				if encodeBuf, err = query.AppendResponse(encodeBuf[:0], &encodeMix[i]); err != nil {
					return err
				}
			}
			return nil
		}},
		// Snapshot wire codec: the serialization layer beneath the disk
		// store and the shard fabric. Encode is the insert path (CSR,
		// fields, tree, index and spectrum into one container); decode
		// is the verified peer path, which checks the CSR and rebuilds
		// the index and spectrum to compare with the stored ones (the
		// terrain layout is built lazily, see terrain/layout).
		// decode-stored is the disk store's trusted decode of the same
		// bytes: checksums, then views of every array.
		{"snapshot-codec/encode", func() error {
			return query.EncodeSnapshot(io.Discard, warmSnap)
		}},
		{"snapshot-codec/decode", func() error {
			_, err := query.DecodeSnapshot(encodedSnap.Bytes())
			return err
		}},
		{"snapshot-codec/decode-stored", func() error {
			_, err := scalarfield.DecodeSnapshotImageTrusted(encodedSnap.Bytes(), nil)
			return err
		}},
		// The snapshot's tree section alone: the verified SFST decode a
		// peer snapshot pays.
		{"core/tree-decode", func() error {
			_, err := core.DecodeSuperTree(encodedTree.Bytes())
			return err
		}},
		// decode-zerocopy serves the same record from one mapping of the
		// whole file, every array viewed in place and every section
		// verified, as for peer bytes (zero per-edge heap traffic).
		{"snapshot-codec/decode-zerocopy", func() error {
			snap, err := query.DecodeSnapshotFileMapped(snapPath)
			if err != nil {
				return err
			}
			snap.Release()
			return nil
		}},
		// The raw graph codec beneath the container, same wire bytes
		// every iteration.
		{"graph-codec/encode-csr2", func() error {
			_, err := io.Discard.Write(graph.ArenaWireBytes(g))
			return err
		}},
		{"graph-codec/decode-csr2", func() error {
			_, err := graph.GraphFromArena(arenaWire)
			return err
		}},
		{"graph-codec/decode-csr2-trusted", func() error {
			_, err := graph.GraphFromArenaTrusted(arenaWire)
			return err
		}},
		// Disk-store cold hits: a fresh store per iteration (index scan
		// included, identical in both rows) decodes the stored snapshot
		// from disk with the trusted decode (checksums, then views). The copy row reads the whole file onto the heap and
		// the graph aliases that buffer; the mmap row maps the file
		// instead — compare BytesPerOp for the resident-set difference
		// and NsPerOp for the latency gap.
		{"diskstore/cold-hit-copy", func() error {
			return benchColdHit(benchDir, warmKey, false)
		}},
		{"diskstore/cold-hit-mmap", func() error {
			return benchColdHit(benchDir, warmKey, true)
		}},
		// The steady state of a restarted mmap store: a cold hit while
		// another key of the dataset is open compares its graph section
		// with the open graph and adopts it, skipping the verify scan.
		// No store is built per iteration; the warm-up call is the one
		// full decode that maps the graph.
		{"diskstore/cold-hit-adopt", func() error {
			snap, ok := adoptStore.Get(adoptKeys[adoptHits%2])
			if !ok {
				return fmt.Errorf("diskstore cold hit beside a donor: snapshot missing")
			}
			defer snap.Release()
			if adoptHits++; adoptGraph == nil {
				adoptGraph = snap.Graph
			} else if snap.Graph != adoptGraph {
				return fmt.Errorf("diskstore cold hit beside a donor did not adopt its graph")
			}
			return nil
		}},
	}

	results := make([]benchResult, 0, len(kernels))
	fmt.Printf("%-38s %14s %12s %14s\n", "Kernel", "ns/op", "allocs/op", "B/op")
	for _, k := range kernels {
		r, err := measureKernel(k.name, *benchIters, k.fn)
		if err != nil {
			return err
		}
		results = append(results, r)
		fmt.Printf("%-38s %14.0f %12.1f %14.0f\n", r.Name, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
	}

	out := struct {
		Dataset  string        `json:"dataset"`
		Scale    float64       `json:"scale"`
		Vertices int           `json:"vertices"`
		Edges    int           `json:"edges"`
		Iters    int           `json:"iters"`
		MaxProcs int           `json:"gomaxprocs"`
		Host     benchHost     `json:"host"`
		Results  []benchResult `json:"results"`
	}{"GrQc", cfg.scale, g.NumVertices(), g.NumEdges(), *benchIters, runtime.GOMAXPROCS(0), currentHost(), results}

	path := *benchOut
	if !filepath.IsAbs(path) {
		path = filepath.Join(cfg.out, path)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
