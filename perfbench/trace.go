package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	scalarfield "repro"
	"repro/internal/contour"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/terrain"
)

// The traced run replays a workload's request sequence in-process,
// calling the same public layer functions the server calls, with a
// span around each call. A span's self time is its duration minus its
// children's; a layer's metric is its summed self time divided by the
// number of replayed requests, so the layer metrics of a workload add
// up (means are additive, medians are not) and
//
//	transport_us = e2e mean latency - sum of attributed layer means
//
// is the named residual: HTTP, the kernel, scheduling, and whatever the
// replay cannot see inside the server.
//
// Where a layer hides its children inside one call (DiskStore.Get
// decodes, DiskStore.Add encodes, the snapshot decoder verifies the
// arena and rebuilds the layout), the children are timed by calling
// each child function on the same input right after the parent and
// recorded as the parent's child spans; that probe time is excluded
// from the request's own total.

// span is one timed layer call. Times are nanoseconds since the trace
// started; Parent is the index of the enclosing span (-1 for a
// request's root); spans of one request share Req.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// rootSpan names each replayed request's root span.
const rootSpan = "request"

// replayer drives one workload's in-process replay: an untraced pass,
// then a traced pass over the same sequence, each bounded by budget.
type replayer struct {
	budget time.Duration
	e2e    *loopResult // the same run's untraced HTTP window

	on    bool
	t0    time.Time
	req   int
	spans []span
	probe time.Duration // probe time inside the current request

	totals   [2][]float64 // per-request µs, untraced and traced
	requests int          // traced requests

	// values holds per-layer metrics that are not span self times.
	values     map[string]float64
	respBytes  int
	mismatches int
	firstMiss  string
}

func newReplayer(budget time.Duration, e2e *loopResult) *replayer {
	runtime.GC() // start from a collected heap, as a fresh server does
	return &replayer{budget: budget, e2e: e2e, t0: time.Now(), values: map[string]float64{}}
}

func (r *replayer) now() int64 { return int64(time.Since(r.t0)) }

func (r *replayer) begin(name string, parent int) int {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Req: r.req, Parent: parent, Start: r.now()})
	return len(r.spans) - 1
}

func (r *replayer) end(i int) {
	if i >= 0 {
		r.spans[i].End = r.now()
	}
}

// span times f as one layer call under parent.
func (r *replayer) span(name string, parent int, f func()) {
	i := r.begin(name, parent)
	f()
	r.end(i)
}

// record adds a child span measured by a probe.
func (r *replayer) record(name string, parent int, start, end int64) {
	if r.on {
		r.spans = append(r.spans, span{Name: name, Req: r.req, Parent: parent, Start: start, End: end})
	}
}

// probeSpan runs a probe child under parent and books its time as
// probe time, so it does not count toward the request total.
func (r *replayer) probeSpan(name string, parent int, f func()) {
	start := r.now()
	f()
	end := r.now()
	r.record(name, parent, start, end)
	r.probe += time.Duration(end - start)
}

// run replays req maxReq times or until the budget ends, untraced and
// then traced. req receives the request index and its root span.
func (r *replayer) run(ctx context.Context, maxReq int, req func(i, root int) error) error {
	// The replay gets the processors a server gets.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(serverProcs))
	// The traced pass replays exactly the requests the untraced pass
	// got through, so the two medians compare like with like.
	for pass := range 2 {
		r.on = pass == 1
		start := time.Now()
		for i := 0; i < maxReq && (r.on || time.Since(start) < r.budget) && ctx.Err() == nil; i++ {
			r.req, r.probe = i, 0
			t0 := time.Now()
			root := r.begin(rootSpan, -1)
			if err := req(i, root); err != nil {
				return err
			}
			r.end(root)
			r.totals[pass] = append(r.totals[pass], us(time.Since(t0)-r.probe))
			if r.on {
				r.requests++
			}
		}
		maxReq = len(r.totals[0])
	}
	return ctx.Err()
}

// check compares a replayed answer with the oracle's.
func (r *replayer) check(got, want []byte, what string) {
	if !bytes.Equal(got, want) {
		r.mismatches++
		if r.firstMiss == "" {
			r.firstMiss = fmt.Sprintf("replayed %s: %d bytes differ from the %d expected", what, len(got), len(want))
		}
	}
}

// opSpans names the span of each op kind.
var opSpans = map[string]string{
	query.OpAlphaCut:    "query.ops.alpha_cut",
	query.OpPeaks:       "query.ops.peaks",
	query.OpComponentOf: "query.ops.component_of",
	query.OpMCC:         "query.ops.mcc",
	query.OpSpectrum:    "query.ops.spectrum",
}

// getter resolves a request's snapshot, under its own span(s).
type getter func(root int, key query.Key) (*query.Snapshot, error)

// query replays one batch request the way query.Handler serves it:
// decode the body, resolve the snapshot, answer each op, encode.
func (r *replayer) query(eng *query.Engine, b batch, root int, get getter) error {
	var req query.Request
	var err error
	r.span("query.http.decode", root, func() { err = json.Unmarshal(b.body, &req) })
	if err != nil {
		return err
	}
	key := query.Key{Dataset: req.Dataset, Measure: req.Measure, Color: *req.Color, Bins: *req.Bins}
	snap, err := get(root, key)
	if err != nil {
		return err
	}
	defer snap.Release()
	results := make([]query.OpResult, 0, len(req.Ops))
	for j := range req.Ops {
		r.span(opSpans[req.Ops[j].Op], root, func() { results = append(results, eng.Resolve(snap, req.Ops[j:j+1])...) })
	}
	var buf bytes.Buffer
	r.span("query.http.encode", root, func() {
		err = json.NewEncoder(&buf).Encode(query.Response{Snapshot: snap.Info(), Results: results})
	})
	if err != nil {
		return err
	}
	if r.on {
		r.respBytes += buf.Len()
	}
	r.check(buf.Bytes(), b.want, fmt.Sprintf("query on %v", key))
	return nil
}

// engineHit is the getter for workloads whose keys are cached in the
// engine: one SnapshotCtx call, a cache hit.
func (r *replayer) engineHit(ctx context.Context, eng *query.Engine) getter {
	return func(root int, key query.Key) (s *query.Snapshot, err error) {
		r.span("query.engine.hit", root, func() { s, err = eng.SnapshotCtx(ctx, key) })
		return s, err
	}
}

// allocsPer reports heap allocations per call of f over n calls.
func allocsPer(n int, f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for range n {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// queryAllocs measures the engine hit's and a batch resolution's
// allocations over a warm engine.
func (r *replayer) queryAllocs(ctx context.Context, eng *query.Engine, pool []batch, hits bool) {
	if hits {
		key := pool[0].key
		r.values["query.engine.hit_allocs"] = allocsPer(1000, func() {
			if s, err := eng.SnapshotCtx(ctx, key); err == nil {
				s.Release()
			}
		})
	}
	snaps := make([]*query.Snapshot, len(pool))
	for i, b := range pool {
		s, err := eng.Snapshot(b.key)
		if err != nil {
			return
		}
		snaps[i] = s
	}
	i := 0
	r.values["query.ops.resolve_allocs"] = allocsPer(len(pool), func() {
		eng.Resolve(snaps[i], pool[i].ops)
		i++
	})
	for _, s := range snaps {
		s.Release()
	}
}

// ---- per-workload replays ----

// replayCached replays a pool whose keys eng holds cached.
func (r *replayer) replayCached(ctx context.Context, eng *query.Engine, pool []batch) error {
	get := r.engineHit(ctx, eng)
	if err := r.run(ctx, 8*len(pool), func(i, root int) error {
		return r.query(eng, pool[i%len(pool)], root, get)
	}); err != nil {
		return err
	}
	r.queryAllocs(ctx, eng, pool, true)
	return nil
}

func (w *interact) replay(ctx context.Context, e *env, nodes []*node, r *replayer) error {
	if err := r.replayCached(ctx, w.o.eng, w.pool); err != nil {
		return err
	}
	// The timed node has done its part; the route probe's two servers
	// take its place.
	for _, n := range nodes {
		e.fleet.stop(n)
	}
	return r.routeProbe(ctx, e, w.size)
}

// routeProbe measures the forward and relay hop: a two-node fleet with
// b-owned keys warmed on b, and the cheap mix sent by one client for
// half the replay budget through a, then as long straight to b. The
// hop is the difference of the two medians.
func (r *replayer) routeProbe(ctx context.Context, e *env, size float64) error {
	w := &forwarded{size: size}
	if err := w.prepare(e); err != nil {
		return err
	}
	nodes, err := w.boot(ctx, e)
	for _, n := range nodes {
		defer e.fleet.stop(n)
	}
	if err != nil {
		return err
	}
	var loops [2]*loopResult
	for i, n := range nodes {
		loops[i] = closedLoop(ctx, e.hc, newCycle(n.url, w.pool, 1), 1, r.budget/2)
		if loops[i].failed > 0 || loops[i].completed() == 0 {
			return fmt.Errorf("route probe: requests to %s failed: %s", n.id, loops[i].firstFail)
		}
	}
	viaA, _ := percentile(loops[0].latencies, 0.5)
	toB, _ := percentile(loops[1].latencies, 0.5)
	r.values["query.route.forward_us"] = (viaA - toB) * 1000
	r.values["query.route.relay_bytes"] = float64(loops[0].respBytes) / float64(loops[0].completed())
	open, err := openBreakers(ctx, e.hc, nodes[0].url)
	if err != nil {
		return err
	}
	r.values["query.route.breaker_open"] = float64(open)
	return nil
}

// openBreakers counts the peers whose circuit breaker a node reports
// open on /healthz.
func openBreakers(ctx context.Context, hc *http.Client, url string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var health struct {
		Peers map[string]int `json:"peers"` // resilience.BreakerState: 1 = open
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		return 0, fmt.Errorf("decoding /healthz: %w", err)
	}
	open := 0
	for _, state := range health.Peers {
		if state == 1 {
			open++
		}
	}
	return open, nil
}

// openLRU mirrors the disk store's open-entry LRU (same capacity, same
// promote-on-hit, insert-on-miss policy) so the replay knows which
// lookups decode.
type openLRU struct {
	max  int
	keys []query.Key // most recent first
}

func (l *openLRU) touch(key query.Key) (hit bool) {
	for i, k := range l.keys {
		if k == key {
			copy(l.keys[1:i+1], l.keys[:i])
			l.keys[0] = key
			return true
		}
	}
	l.keys = append([]query.Key{key}, l.keys...)
	if len(l.keys) > l.max {
		l.keys = l.keys[:l.max]
	}
	return false
}

func (w *coldDisk) replay(ctx context.Context, _ *env, _ []*node, r *replayer) error {
	open := func() (*query.DiskStore, error) {
		return query.NewDiskStoreOptions(w.dir, query.DiskStoreOptions{MmapGraphs: true})
	}
	var scans []float64
	for range 3 {
		var err error
		scans = append(scans, ms(timeIt(func() { _, err = open() })))
		if err != nil {
			return err
		}
	}
	r.values["query.store.index_scan_ms"] = median(scans)

	ds, err := open()
	if err != nil {
		return err
	}
	lru := &openLRU{max: query.DefaultOpenSnapshots}
	// The server opened its boot key at startup.
	boot := w.keys[0].snap.Key
	if s, ok := ds.Get(boot); ok {
		s.Release()
	}
	lru.touch(boot)
	trees := map[query.Key][]byte{}
	for _, s := range w.keys {
		var buf bytes.Buffer
		if _, err := s.snap.Terrain.Tree.WriteTo(&buf); err != nil {
			return err
		}
		trees[s.snap.Key] = buf.Bytes()
	}
	var lookups, hits int
	get := func(root int, key query.Key) (*query.Snapshot, error) {
		hit := lru.touch(key)
		if r.on {
			lookups++
			if hit {
				hits++
			}
		}
		var snap *query.Snapshot
		var ok bool
		sp := r.begin("query.store.get", root)
		snap, ok = ds.Get(key)
		r.end(sp)
		if !ok {
			return nil, fmt.Errorf("disk store lost %v", key)
		}
		if !hit && r.on {
			if err := r.decodeProbe(sp, filepath.Join(w.dir, query.SnapshotFileName(key)), trees[key]); err != nil {
				snap.Release()
				return nil, err
			}
		}
		return snap, nil
	}
	if err := r.run(ctx, 8*len(w.pool), func(i, root int) error {
		return r.query(w.o.eng, w.pool[i%len(w.pool)], root, get)
	}); err != nil {
		return err
	}
	if lookups > 0 {
		r.values["query.store.open_hit_ratio"] = float64(hits) / float64(lookups)
	}
	i := 0
	r.values["query.codec.decode_allocs"] = allocsPer(len(w.keys), func() {
		if s, err := query.DecodeSnapshotFileMapped(filepath.Join(w.dir, query.SnapshotFileName(w.keys[i].snap.Key))); err == nil {
			s.Release()
		}
		i++
	})
	r.queryAllocs(ctx, w.o.eng, w.pool, false)
	return nil
}

// decodeProbe times a cold hit's decode and, as its children, the
// arena verification scan, the tree section decode, and the layout
// and spectrum rebuild, each on the same file's contents.
func (r *replayer) decodeProbe(parent int, path string, tree []byte) error {
	var err error
	var d *query.Snapshot
	start := r.now()
	d, err = query.DecodeSnapshotFileMapped(path)
	end := r.now()
	r.probe += time.Duration(end - start)
	if err != nil {
		return err
	}
	defer d.Release()
	r.record("query.codec.decode", parent, start, end)
	dec := len(r.spans) - 1
	r.probeSpan("graph.arena_verify", dec, func() { _, err = graph.GraphFromArena(graph.ArenaWireBytes(d.Graph)) })
	if err != nil {
		return err
	}
	var st *core.SuperTree
	r.probeSpan("core.tree_decode", dec, func() { st, err = core.ReadSuperTree(bytes.NewReader(tree)) })
	if err != nil {
		return err
	}
	r.probeSpan("terrain.layout", dec, func() { _, err = scalarfield.NewTerrainFromTree(st) })
	r.probeSpan("contour.spectrum", dec, func() { contour.NewSpectrum(st) })
	return err
}

func (w *reanalysis) replay(ctx context.Context, e *env, _ []*node, r *replayer) error {
	var disk *query.DiskStore
	if w.store {
		var err error
		if disk, err = query.NewDiskStore(filepath.Join(e.work, "replay-store"), 0); err != nil {
			return err
		}
	}
	store := query.NewMemorySnapshotStore(16)
	eng := query.NewEngine(query.Options{Store: store})
	eng.RegisterDataset(dataset, w.g)
	var tb core.TreeBuilder
	var supernodes, analyses int
	last := map[query.Key]*query.Snapshot{} // each key's latest traced analysis
	// The analysis is the snapshot getter of an otherwise ordinary
	// query: a miss, analyzed layer by layer and added to the store.
	miss := func(root int, key query.Key) (*query.Snapshot, error) {
		snap, err := w.analyze(r, root, &tb, key)
		if err != nil {
			return nil, err
		}
		snap.Seq = eng.ExpectedSeq(key)
		if r.on {
			supernodes += snap.Terrain.Tree.Len()
			analyses++
			last[key] = snap
		}
		store.Add(key, snap)
		return snap, nil
	}
	err := r.run(ctx, 1<<20, func(i, root int) error {
		// Request i of either pass is the same round, so the traced and
		// untraced totals pair like with like.
		k, rd := w.round(uint64(i) + 1)
		r.span("query.engine.invalidate", root, func() { eng.Invalidate(dataset) })
		info := w.infos[k]
		info.Seq = eng.ExpectedSeq(w.keys[k])
		return r.query(eng, batch{body: rd.body, want: encodeResponse(info, rd.results)}, root, miss)
	})
	if err != nil {
		return err
	}
	if analyses > 0 {
		r.values["core.supernodes"] = float64(supernodes) / float64(analyses)
	}
	if disk != nil {
		if err := r.storeProbe(disk, last); err != nil {
			return err
		}
	}
	// Super tree allocations, one build per key.
	var total float64
	for _, key := range w.keys {
		values, edge, err := scalarfield.MeasureValues(w.g, key.Measure, true)
		if err != nil {
			return err
		}
		tree, err := buildTree(&tb, w.g, values, edge, key.Bins)
		if err != nil {
			return err
		}
		total += allocsPer(1, func() { core.Postprocess(tree) })
	}
	r.values["core.supertree_allocs"] = total / float64(len(w.keys))
	return nil
}

// storeProbe times the disk store's write path on each key's latest
// analysis, after the replay: the timed node does not take that path,
// and 4 MB written per request would slow the replay itself. Encoding
// into a byte counter isolates the codec's CPU from the file write;
// query.store.add_us is the rest of DiskStore.Add.
func (r *replayer) storeProbe(disk *query.DiskStore, snaps map[query.Key]*query.Snapshot) error {
	const rounds = 3
	var encode, add []float64
	var bytes byteCounter
	for range rounds {
		for key, snap := range snaps {
			var n byteCounter
			var err error
			enc := timeIt(func() { err = query.EncodeSnapshot(&n, snap) })
			if err != nil {
				return err
			}
			encode = append(encode, us(enc))
			add = append(add, us(timeIt(func() { disk.Add(key, snap) })-enc))
			bytes += n
		}
	}
	if len(encode) > 0 {
		r.values["query.codec.encode_us"] = median(encode)
		r.values["query.store.add_us"] = median(add)
		r.values["query.codec.snapshot_bytes"] = float64(bytes) / float64(len(encode))
	}
	return nil
}

// byteCounter is an io.Writer that only counts.
type byteCounter int

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}

// analyze runs the analysis pipeline of one key the way the pooled
// scalarfield.Analyzer and query.Engine do, one span per layer.
func (w *reanalysis) analyze(r *replayer, root int, tb *core.TreeBuilder, key query.Key) (*query.Snapshot, error) {
	var values, colors []float64
	var edge bool
	var err error
	r.span(measureSpan(key.Measure), root, func() { values, edge, err = scalarfield.MeasureValues(w.g, key.Measure, true) })
	if err != nil {
		return nil, err
	}
	if key.Color != "" {
		r.span(measureSpan(key.Color), root, func() { colors, _, err = scalarfield.MeasureValues(w.g, key.Color, true) })
		if err != nil {
			return nil, err
		}
	}
	var tree *core.Tree
	r.span("core.tree", root, func() { tree, err = buildTree(tb, w.g, values, edge, key.Bins) })
	if err != nil {
		return nil, err
	}
	var st *core.SuperTree
	r.span("core.supertree", root, func() { st = core.Postprocess(tree) })
	// The layout the analyzer builds (its default intensity coloring
	// is left out: no op reads colors), then the color field's coloring.
	t := &scalarfield.Terrain{Tree: st}
	r.span("terrain.layout", root, func() {
		if t.Layout = terrain.NewLayout(st, terrain.LayoutOptions{}); colors != nil {
			err = t.ColorByValues(colors)
		}
	})
	if err != nil {
		return nil, err
	}
	var spec *contour.Spectrum
	r.span("contour.spectrum", root, func() { spec = contour.NewSpectrum(st) })
	return &query.Snapshot{Key: key, Graph: w.g, Edge: edge, Values: values, ColorValues: colors, Terrain: t, Spectrum: spec}, nil
}

// buildTree is the sweep order plus union-find sweep (Algorithm 1 or
// 3) on pooled state, after the optional simplification.
func buildTree(tb *core.TreeBuilder, g *graph.Graph, values []float64, edge bool, bins int) (*core.Tree, error) {
	if edge {
		f, err := core.NewEdgeField(g, values)
		if err != nil {
			return nil, err
		}
		if bins > 0 {
			f = core.SimplifyEdgeField(f, bins)
		}
		return tb.BuildEdgeTree(f), nil
	}
	f, err := core.NewVertexField(g, values)
	if err != nil {
		return nil, err
	}
	if bins > 0 {
		f = core.SimplifyVertexField(f, bins)
	}
	return tb.BuildVertexTree(f), nil
}

// measureSpan names a measure's span: measures.<name>, dashes as
// underscores.
func measureSpan(measure string) string {
	return "measures." + strings.ReplaceAll(measure, "-", "_")
}

// ---- aggregation ----

// layerReport is the traced run's result for one workload.
type layerReport struct {
	values     map[string]float64 // every per-layer metric
	attributed float64            // µs: sum of the span-derived layer means
	e2eMean    float64            // µs
	e2eP50     float64            // µs
	overhead   float64            // µs: median of traced minus untraced, per request
	requests   int
}

// finish folds the spans into per-layer metrics.
func (r *replayer) finish(generateMs float64) *layerReport {
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	rep := &layerReport{values: map[string]float64{}, requests: r.requests}
	if r.requests > 0 {
		for i, s := range r.spans {
			if s.Name == rootSpan {
				continue
			}
			v := float64(self[i]) / 1e3 / float64(r.requests)
			rep.values[s.Name+"_us"] += v
			rep.attributed += v
		}
		rep.values["query.http.response_bytes"] = float64(r.respBytes) / float64(r.requests)
	}
	for k, v := range r.values {
		rep.values[k] = v
	}
	rep.values["datasets.generate_ms"] = generateMs
	var sum float64
	for _, l := range r.e2e.latencies {
		sum += l
	}
	if n := len(r.e2e.latencies); n > 0 {
		rep.e2eMean = sum / float64(n) * 1000
		p50, _ := percentile(r.e2e.latencies, 0.5)
		rep.e2eP50 = p50 * 1000
	}
	rep.values["transport_us"] = rep.e2eMean - rep.attributed
	// Paired: request i did the same work in both passes.
	diffs := make([]float64, min(len(r.totals[0]), len(r.totals[1])))
	for i := range diffs {
		diffs[i] = r.totals[1][i] - r.totals[0][i]
	}
	rep.overhead = median(diffs)
	for _, m := range perLayer {
		if _, ok := rep.values[m.Name]; !ok {
			rep.values[m.Name] = 0 // a layer this workload never crosses
		}
	}
	return rep
}

// generateMs is the dataset generator's median time over three runs.
func generateMs(scale float64) (float64, error) {
	var t []float64
	for range 3 {
		var err error
		t = append(t, ms(timeIt(func() { _, err = datasets.Generate(dataset, scale, datasetSeed) })))
		if err != nil {
			return 0, err
		}
	}
	return median(t), nil
}

// writeSpans writes the traced pass's spans as JSON lines.
func (r *replayer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
