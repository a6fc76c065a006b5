package main

// The perf-trajectory experiment: a fixed set of hot-path kernels —
// tree construction with the default and pooled sweep drivers, the
// radix sweep order and contour spectrum of a fractional field, the
// triangle measures (clustering and k-truss) on the oriented triangle
// listing, the distance-based centrality kernels on the batched MS-BFS
// engine (closeness, harmonic, eccentricity, k-hop, and the
// early-cutoff diameter fold), the betweenness kernels on the batched
// MS-Brandes engine (vertex, edge, and sampled), one row per kernel,
// the snapshot-cache hit/miss paths of internal/query, and the
// snapshot wire codec (encode and decode throughput for the disk
// store and the shard fabric) — timed with allocation counts and
// written as machine-readable JSON (-benchout, BENCH_8.json by
// default), so the effect of each PR on the hot path is tracked as
// checked-in evidence rather than folklore. CI runs it with
// -benchiters 1 as a smoke test; locally, higher iteration counts
// give stable numbers.
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
// the triangles/* rows are serial. Each row is one mean over
// -benchiters runs after a warm-up call, with no spread.
// BENCH_4–7.json also carry per-source baseline, *-1worker, and
// vertex-tree/serial-sort rows; those kernels now live only in test
// code as oracles, and the checked-in files keep their numbers as
// history. The snapshot-codec rows time the full container — graph
// CSR, fields, super tree — so encode ns/op over the snapshot's byte
// size is the disk-store insert cost and the upper bound a shared
// cache tier pays per miss.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
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
		// The terrain geometry of the clustering tree, built by the first
		// Rects call: analyses and snapshot decodes defer it, so the
		// viewer pays it on a terrain's first render.
		{"terrain/layout", ok(func() { terrain.NewLayout(clusteringTree, terrain.LayoutOptions{}).Rects() })},
		// The triangle measures on the oriented listing: clustering is
		// one counting pass; ktruss adds a second pass filling the
		// per-edge triangle CSR and the bucket peel over it.
		{"triangles/clustering", ok(func() { measures.ClusteringCoefficients(g) })},
		{"triangles/ktruss", ok(func() { measures.TrussNumbers(g) })},
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
		// Snapshot wire codec: the serialization layer beneath the disk
		// store and the shard fabric. Encode is the insert path (CSR +
		// fields + tree into one container); decode is the cold-hit
		// path, including CSR reconstruction and spectrum recomputation
		// (the terrain layout is built lazily, see terrain/layout).
		{"snapshot-codec/encode", func() error {
			return query.EncodeSnapshot(io.Discard, warmSnap)
		}},
		{"snapshot-codec/decode", func() error {
			_, err := query.DecodeSnapshot(bytes.NewReader(encodedSnap.Bytes()))
			return err
		}},
		// decode-zerocopy serves the same record from a file with the
		// graph section mapped in place (verify scan, zero per-edge heap
		// traffic).
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
		// from disk. The copy row reads the graph section onto the heap;
		// the mmap row aliases the file mapping — compare BytesPerOp for the
		// resident-set difference and NsPerOp for the latency gap.
		{"diskstore/cold-hit-copy", func() error {
			return benchColdHit(benchDir, warmKey, false)
		}},
		{"diskstore/cold-hit-mmap", func() error {
			return benchColdHit(benchDir, warmKey, true)
		}},
	}

	results := make([]benchResult, 0, len(kernels))
	fmt.Printf("%-32s %14s %12s %14s\n", "Kernel", "ns/op", "allocs/op", "B/op")
	for _, k := range kernels {
		r, err := measureKernel(k.name, *benchIters, k.fn)
		if err != nil {
			return err
		}
		results = append(results, r)
		fmt.Printf("%-32s %14.0f %12.1f %14.0f\n", r.Name, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
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
