package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/shard"
)

// env is one benchmark run's context.
type env struct {
	work  string // this run's scratch directory inside the checkout
	seed  uint64
	fleet *fleet
	hc    *http.Client
}

// rng returns the run's seeded generator for one purpose (stream), so
// adding draws to one pool never reshuffles another.
func (e *env) rng(stream uint64) *rand.Rand { return rand.New(rand.NewPCG(e.seed, stream)) }

// workload is one traffic mix against real cmd/serve processes.
type workload interface {
	// prepare generates the inputs from the seed and computes every
	// expected answer in-process. Untimed.
	prepare(e *env) error
	// boot starts fresh servers for the workload and warms every key the
	// timed loop expects cached; its wall time is one setup_s sample.
	boot(ctx context.Context, e *env) ([]*node, error)
	// clients is the closed loop's concurrency (never above nproc).
	clients() int
	// source yields the clients' requests against the booted nodes.
	source(nodes []*node) source
	// tail is the percentile the report prints next to the median.
	tail() float64
	// scale is the GrQc stand-in's scale factor.
	scale() float64
	// replay reruns the workload's request sequence in-process through
	// the layer functions the server calls; see trace.go.
	replay(ctx context.Context, e *env, nodes []*node, r *replayer) error
}

// workloadNames lists the workloads in report order. Why each exists
// is said on its type below and in BENCHMARK.json.
var workloadNames = []string{"interact", "reanalyze", "centrality", "cold-disk"}

// newWorkload returns the named workload at its own dataset scale, or
// at scale when that is positive.
func newWorkload(name string, scale float64) (workload, error) {
	pick := func(own float64) float64 {
		if scale > 0 {
			return scale
		}
		return own
	}
	switch name {
	case "interact":
		// Small like the others below: at scale 10 its heaviest batches
		// (an α-cut near the lowest α returns half a megabyte) drifted
		// with the neighbours by a fifth between runs.
		return &interact{size: pick(2)}, nil
	// The analysis workloads run on small graphs. On a shared two-core
	// host a scale-6 reanalysis drifted with the neighbours even at its
	// 10th percentile (24 to 31 ms over ten runs), where the scale-0.25
	// centrality held within 4%; and a short round leaves each key's
	// quiet time hundreds of rounds to rest on.
	case "reanalyze":
		return &reanalysis{size: pick(2), store: true, keys: []query.Key{
			{Dataset: dataset, Measure: "kcore"},
			{Dataset: dataset, Measure: "clustering"},
			{Dataset: dataset, Measure: "ktruss"},
		}}, nil
	case "centrality":
		return &reanalysis{size: pick(0.25), keys: []query.Key{
			{Dataset: dataset, Measure: "betweenness-sampled", Color: "closeness"},
		}}, nil
	case "cold-disk":
		// At scale 10 its decodes drifted with the neighbours like the
		// scale-6 reanalysis.
		return &coldDisk{size: pick(2)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// Sizes of the seeded request pools. Clients cycle through their pool,
// so a pool is both the timed mix and the replayed trace. Each divides
// evenly among its keys (2 interact, 24 cold-disk and 8 forwarded
// keys, the last for interact's route probe), so every key's draws are
// whole deck blocks.
const (
	interactPool  = 256
	coldDiskPool  = 192
	forwardedPool = 128
	readsPerKey   = 16
)

const (
	queryPath      = "/api/v1/query"
	invalidatePath = "/api/v1/invalidate?dataset=" + dataset
)

// serveFlags are the common cmd/serve flags for one workload node.
func serveFlags(scale float64, key query.Key, extra ...string) []string {
	f := []string{"-dataset", dataset, "-scale", strconv.FormatFloat(scale, 'g', -1, 64),
		"-seed", strconv.Itoa(datasetSeed), "-measure", key.Measure}
	if key.Color != "" {
		f = append(f, "-color", key.Color)
	}
	return append(f, extra...)
}

// cycle is the source for pooled batch workloads: client c walks the
// pool from its own offset, wrapping around.
type cycle struct {
	url  string
	pool []batch
	pos  []int
}

func newCycle(url string, pool []batch, clients int) *cycle {
	c := &cycle{url: url, pool: pool, pos: make([]int, clients)}
	for i := range c.pos {
		c.pos[i] = i * len(pool) / clients
	}
	return c
}

func (c *cycle) next(client int) (int, []exchange) {
	i := c.pos[client]
	c.pos[client] = (i + 1) % len(c.pool)
	return i, []exchange{{url: c.url + queryPath, body: c.pool[i].body, want: c.pool[i].want}}
}

// warm sends each key's spectrum batch to url and checks the answer:
// after it, the key's snapshot is cached on that node.
func warm(ctx context.Context, e *env, url string, o *oracle, keys []*served) error {
	for _, s := range keys {
		b := o.batch(s.snap, []query.Op{{Op: query.OpSpectrum}})
		if err := post(ctx, e.hc, exchange{url: url + queryPath, body: b.body, want: b.want}); err != nil {
			return fmt.Errorf("warming %v: %w", s.snap.Key, err)
		}
	}
	return nil
}

// ---- interact ----

// interact: one node with kcore (vertex) and ktruss (edge)
// cached; one client cycles a pool of 4-op batches, an equal share of
// alpha_cut/peaks/component_of/mcc/spectrum ops, α uniform over the
// key's scalar range, items uniform (both dealt stratified, see deck).
type interact struct {
	size float64 // dataset scale
	o    *oracle
	keys []*served
	pool []batch
}

// clients is one: a server has one processor (see serverProcs), so a
// second client would only queue behind the first.
func (w *interact) clients() int   { return 1 }
func (w *interact) tail() float64  { return 0.99 }
func (w *interact) scale() float64 { return w.size }
func (w *interact) prepare(e *env) error {
	o, err := newOracle(w.size, query.Options{})
	if err != nil {
		return err
	}
	w.o = o
	rng, order := e.rng(1), shared(1)
	for _, m := range []string{"kcore", "ktruss"} {
		snap, err := o.snapshot(query.Key{Dataset: dataset, Measure: m})
		if err != nil {
			return err
		}
		w.keys = append(w.keys, newServed(snap))
	}
	// Per key: an equal share of op slots for each kind, each kind's α
	// and items dealt from its own decks, the slots shuffled into 4-op
	// batches; then the keys' batches shuffled together.
	kinds := []string{query.OpAlphaCut, query.OpPeaks, query.OpComponentOf, query.OpMCC, query.OpSpectrum}
	perKey := interactPool / len(w.keys)
	for _, s := range w.keys {
		ops := make([]query.Op, 4*perKey)
		alphas, items := map[string]*deck{}, map[string]*deck{}
		for j, k := range kinds {
			// One block per kind: the kind's share of the slots.
			n := (len(ops) - j + len(kinds) - 1) / len(kinds)
			alphas[k], items[k] = newDeck(rng, order, n), newDeck(rng, order, n)
		}
		for i := range ops {
			op := query.Op{Op: kinds[i%len(kinds)]}
			switch op.Op {
			case query.OpAlphaCut, query.OpPeaks:
				op.Alpha = dealAlpha(alphas[op.Op], s.lo, s.hi)
			case query.OpComponentOf:
				op.Item, op.Alpha = dealItem(items[op.Op], s.byScalar), dealAlpha(alphas[op.Op], s.lo, s.hi)
			case query.OpMCC:
				op.Item = dealItem(items[op.Op], s.byMCC)
			}
			ops[i] = op
		}
		order.Shuffle(len(ops), func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
		for b := range perKey {
			w.pool = append(w.pool, o.batch(s.snap, ops[4*b:4*b+4]))
		}
	}
	order.Shuffle(len(w.pool), func(a, b int) { w.pool[a], w.pool[b] = w.pool[b], w.pool[a] })
	return nil
}

func (w *interact) boot(ctx context.Context, e *env) ([]*node, error) {
	nodes, err := e.fleet.startNodes(ctx, []nodeSpec{{id: "n", flags: serveFlags(w.size, w.keys[0].snap.Key)}})
	if err != nil {
		return nil, err
	}
	return nodes, warm(ctx, e, nodes[0].url, w.o, w.keys)
}

func (w *interact) source(nodes []*node) source { return newCycle(nodes[0].url, w.pool, w.clients()) }

// ---- reanalyze and centrality ----

// reanalysis: one client repeats invalidate-then-read; every read is
// a fresh analysis of the next key in the rotation, and its seq must
// be the one the new generation implies.
type reanalysis struct {
	size float64 // dataset scale
	keys []query.Key
	// store times the disk store's write path after the traced replay.
	// The timed node keeps its snapshots in memory: with -store-dir on a
	// disk, round times followed the host's other writers.
	store bool

	g     *graph.Graph
	infos []query.Info // per key, as analyzed at generation 0
	reads [][]read     // per key
	seqs  *query.Engine
	gen   uint64 // invalidations sent to the current node
}

// read is one pooled 2-op read (spectrum, mcc) with its oracle results;
// the response bytes also carry the round's seq, so they are encoded
// per round.
type read struct {
	body    []byte
	results []query.OpResult
}

func (w *reanalysis) clients() int   { return 1 }
func (w *reanalysis) tail() float64  { return 0.9 }
func (w *reanalysis) scale() float64 { return w.size }

func (w *reanalysis) prepare(e *env) error {
	o, err := newOracle(w.size, query.Options{})
	if err != nil {
		return err
	}
	w.g = o.g
	rng, order := e.rng(2), shared(2)
	for _, key := range w.keys {
		snap, err := o.snapshot(key)
		if err != nil {
			return err
		}
		s := newServed(snap)
		w.infos = append(w.infos, snap.Info())
		mccs := newDeck(rng, order, readsPerKey)
		var rs []read
		for range readsPerKey {
			ops := []query.Op{{Op: query.OpSpectrum}, {Op: query.OpMCC, Item: dealItem(mccs, s.byMCC)}}
			rs = append(rs, read{body: requestBody(key, ops), results: o.eng.Resolve(snap, ops)})
		}
		w.reads = append(w.reads, rs)
	}
	// Only the answers are kept: the oracle's snapshots would otherwise
	// sit in this process's heap while the replay measures analyses.
	o.eng.Invalidate(dataset)
	return nil
}

func (w *reanalysis) boot(ctx context.Context, e *env) ([]*node, error) {
	nodes, err := e.fleet.startNodes(ctx, []nodeSpec{{id: "n", flags: serveFlags(w.size, w.keys[0])}})
	if err != nil {
		return nil, err
	}
	// A fresh node starts at generation 0. seqs never analyzes: it
	// follows the node's generation and derives the seq each read must
	// carry.
	w.gen = 0
	w.seqs = query.NewEngine(query.Options{})
	return nodes, nil
}

func (w *reanalysis) source(nodes []*node) source { return &rounds{w: w, url: nodes[0].url} }

// round returns the key index and read of the round that follows the
// gen-th invalidation.
func (w *reanalysis) round(gen uint64) (int, read) {
	k := int((gen - 1) % uint64(len(w.keys)))
	rs := w.reads[k]
	return k, rs[int(gen-1)%len(rs)]
}

// want is the expected response of read r of key k after invalidation
// number gen.
func (w *reanalysis) want(k int, r read, gen uint64) []byte {
	w.seqs.AdoptGeneration(dataset, gen)
	info := w.infos[k]
	info.Seq = w.seqs.ExpectedSeq(w.keys[k])
	return encodeResponse(info, r.results)
}

type rounds struct {
	w   *reanalysis
	url string
}

// next's class is the round's key: its reads differ by one MCC lookup,
// a small part of an analysis.
func (s *rounds) next(int) (int, []exchange) {
	w := s.w
	w.gen++
	k, r := w.round(w.gen)
	var inv bytes.Buffer
	// The invalidation handler's answer: the dataset's new generation.
	_ = json.NewEncoder(&inv).Encode(map[string]any{"dataset": dataset, "generation": w.gen})
	return k, []exchange{
		{url: s.url + invalidatePath, want: inv.Bytes()},
		{url: s.url + queryPath, body: r.body, want: w.want(k, r, w.gen)},
	}
}

// ---- cold-disk ----

// coldKeys is the populated key set: six cheap-to-analyze measures at
// four simplification levels.
func coldKeys() []query.Key {
	var keys []query.Key
	for _, m := range []string{"kcore", "degree", "onion", "clustering", "ktruss", "triangles"} {
		for _, bins := range []int{0, 16, 64, 256} {
			keys = append(keys, query.Key{Dataset: dataset, Measure: m, Bins: bins})
		}
	}
	return keys
}

// coldDisk: the oracle engine, backed by a DiskStore, analyzes all 24
// keys into a store directory (the populate pass); the measured node
// restarts on that directory with -mmap-graphs, so setup_s is a
// restart, and one client reads cheap batches for uniform keys.
type coldDisk struct {
	size float64 // dataset scale
	dir  string
	o    *oracle
	keys []*served
	pool []batch
}

func (w *coldDisk) clients() int   { return 1 }
func (w *coldDisk) tail() float64  { return 0.99 }
func (w *coldDisk) scale() float64 { return w.size }

func (w *coldDisk) prepare(e *env) error {
	w.dir = filepath.Join(e.work, "populated")
	ds, err := query.NewDiskStore(w.dir, 0)
	if err != nil {
		return err
	}
	gens, err := query.NewGenerationFile(filepath.Join(w.dir, "generations"))
	if err != nil {
		return err
	}
	o, err := newOracle(w.size, query.Options{Store: ds, Generations: gens})
	if err != nil {
		return err
	}
	w.o = o
	rng := e.rng(3)
	for _, key := range coldKeys() {
		snap, err := o.snapshot(key)
		if err != nil {
			return err
		}
		w.keys = append(w.keys, newServed(snap))
	}
	// Write the populated store back now, not during the timed window
	// (on a disk-backed checkout the kernel would flush ~100 MB then).
	if err := syncDir(w.dir); err != nil {
		return err
	}
	w.pool = cheapPool(o, rng, w.keys, coldDiskPool)
	return nil
}

func (w *coldDisk) boot(ctx context.Context, e *env) ([]*node, error) {
	return e.fleet.startNodes(ctx, []nodeSpec{{id: "n",
		flags: serveFlags(w.size, w.keys[0].snap.Key, "-store-dir", w.dir, "-mmap-graphs")}})
}

func (w *coldDisk) source(nodes []*node) source { return newCycle(nodes[0].url, w.pool, w.clients()) }

// syncDir flushes every file in dir, and dir itself, to the disk.
func syncDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	paths := []string{dir}
	for _, en := range entries {
		paths = append(paths, filepath.Join(dir, en.Name()))
	}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		err = f.Sync()
		f.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// cheapPool deals n cheap-mix batches, an equal share per key, in a
// shuffled order: key reuse distances are those of uniform draws, which
// is what the disk store's open LRU answers to. The order is the same
// for every seed, so the share of requests that decode from disk does
// not vary with it; the seed shifts the ops' draws.
func cheapPool(o *oracle, rng *rand.Rand, keys []*served, n int) []batch {
	shuffle := shared(uint64(n))
	decks := make([]*cheapDecks, len(keys))
	for i := range decks {
		decks[i] = newCheapDecks(rng, shuffle, n/len(keys))
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i % len(keys)
	}
	shuffle.Shuffle(n, func(a, b int) { order[a], order[b] = order[b], order[a] })
	pool := make([]batch, n)
	for i, k := range order {
		pool[i] = o.batch(keys[k].snap, keys[k].cheapOps(decks[k]))
	}
	return pool
}

// ---- forwarded ----

// forwardedKeys bounds the keys owned by b, so they all stay in b's
// 16-entry memory store next to its boot key.
const forwardedKeys = 8

// forwarded is interact's route probe, run only when tracing: founding
// members a and b; every key is owned by b on the ring (internal/shard,
// as the servers build it) and warmed there, and one client sends the
// cheap mix to a, which forwards and relays. It is not a timed workload
// of its own: two servers on a two-core host measured too unsteady.
type forwarded struct {
	size float64 // dataset scale
	o    *oracle
	keys []*served
	pool []batch
}

func (w *forwarded) prepare(e *env) error {
	o, err := newOracle(w.size, query.Options{MaxSnapshots: 32})
	if err != nil {
		return err
	}
	w.o = o
	ring := shard.New([]string{"a", "b"}, 0)
	rng := e.rng(4)
	for _, key := range coldKeys() {
		if ring.Owner(key.ShardString()) != "b" || len(w.keys) == forwardedKeys {
			continue
		}
		snap, err := o.snapshot(key)
		if err != nil {
			return err
		}
		w.keys = append(w.keys, newServed(snap))
	}
	if len(w.keys) == 0 {
		return fmt.Errorf("forwarded: the ring gives b none of the candidate keys")
	}
	w.pool = cheapPool(o, rng, w.keys, forwardedPool)
	return nil
}

func (w *forwarded) boot(ctx context.Context, e *env) ([]*node, error) {
	flags := serveFlags(w.size, query.Key{Measure: "kcore"})
	nodes, err := e.fleet.startNodes(ctx, []nodeSpec{{id: "a", flags: flags}, {id: "b", flags: flags}})
	if err != nil {
		return nil, err
	}
	return nodes, warm(ctx, e, nodes[1].url, w.o, w.keys)
}
