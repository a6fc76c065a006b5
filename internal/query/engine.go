package query

import (
	"context"
	"fmt"
	"log"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	scalarfield "repro"
	"repro/internal/contour"
	"repro/internal/graph"
	"repro/internal/resilience"
)

// Options configures an Engine. The zero value is usable: defaults are
// filled in by NewEngine.
type Options struct {
	// MaxSnapshots bounds the snapshot LRU; 0 means 16. Evicted
	// snapshots stay valid for readers already holding them — eviction
	// only forces the next request for that key to re-analyze. Ignored
	// when Store is set.
	MaxSnapshots int
	// Store, when set, replaces the default in-memory snapshot LRU:
	// the engine probes, inserts, and evicts snapshots through it (a
	// DiskStore persists them across restarts). Singleflight coalescing
	// and the invalidation-generation insert guard stay above the
	// store, so N concurrent misses still run one analysis and a racing
	// Invalidate still wins, whatever the backend.
	Store SnapshotStore
	// Hydrate, when set, is the first step of every snapshot flight:
	// it is asked for key under the dataset's current generation gen
	// and may return a snapshot produced elsewhere (PeerFetcher.Fetch
	// fetches one from a fleet peer), whose Seq must be what gen
	// demands. A hit is the flight's result: it is inserted through
	// the same generation guard as an analysis, takes no admission
	// slot, and does not count as an analysis. A miss goes on to the
	// analysis.
	Hydrate func(key Key, gen uint64) (*Snapshot, bool)
	// MaxGraphs bounds the LRU of graphs loaded on demand through
	// Loader (registered datasets are never evicted); 0 means 8.
	MaxGraphs int
	// Loader, when set, loads datasets on first reference that were
	// not registered up front — e.g. generating a Table I stand-in by
	// name. Loads coalesce like analyses: concurrent requests for one
	// unloaded dataset run the loader once.
	Loader func(name string) (*graph.Graph, error)
	// OnAnalyze, when set, is invoked once per analysis that actually
	// runs (cache misses that Hydrate did not answer, after
	// coalescing). It is a test and metrics hook; it runs on the
	// leader goroutine outside all engine locks except the analyzer's.
	OnAnalyze func(Key)
	// MaxConcurrentAnalyses, when > 0, is admission control: at most
	// this many flights are admitted at once, with up to
	// MaxAnalysisQueue more waiting for a slot. Admitted flights
	// resolve their graphs concurrently, but the engine has one pooled
	// Analyzer, so their pipelines run one at a time behind it.
	// Flights beyond both bounds fail fast with
	// resilience.ErrOverloaded — which the HTTP layer maps to 503 with
	// Retry-After — instead of growing goroutines and held graphs
	// without bound under a miss storm. 0 means unlimited (the
	// pre-admission behavior).
	MaxConcurrentAnalyses int
	// MaxAnalysisQueue bounds the admission wait queue; meaningful
	// only with MaxConcurrentAnalyses > 0. 0 means no queue: every
	// flight beyond the concurrency bound is shed.
	MaxAnalysisQueue int
	// Generations, when set, makes per-dataset invalidation generations
	// durable: NewEngine seeds the in-memory table from it, and every
	// bump (Invalidate, AdoptGeneration) persists through it. With a
	// GenerationFile under the snapshot directory, Snapshot.Seq
	// equality survives restarts — a restarted node serves its
	// disk-cached snapshots without re-analyzing, and fleet peers that
	// share the invalidation history keep agreeing on Seq.
	Generations GenerationStore
	// OnInvalidate, when set, fires after a local Invalidate finishes
	// (generation bumped, persisted, caches evicted) with the dataset
	// and its new generation. cmd/serve uses it to broadcast the
	// invalidation fleet-wide. It does NOT fire for AdoptGeneration —
	// adopted bumps are already someone else's broadcast, and
	// re-announcing them would storm.
	OnInvalidate func(dataset string, gen uint64)
}

// Engine produces and caches Snapshots. All methods are safe for
// concurrent use; the exactly-once guarantee for concurrent cache
// misses is the singleflight group's.
type Engine struct {
	loader       func(name string) (*graph.Graph, error)
	hydrate      func(Key, uint64) (*Snapshot, bool)
	onAnalyze    func(Key)
	onInvalidate func(dataset string, gen uint64)
	// genStore persists generation bumps (nil: process-local only).
	genStore GenerationStore
	// store is the guarded snapshot store the singleflight group sits
	// on; AdoptSnapshot inserts through it so peer-pushed snapshots get
	// the same generation guard as locally analyzed ones.
	store *genGuardedStore

	// analyzerMu serializes the one pooled Analyzer. Coalescing keeps
	// contention low: per (dataset, measure, color, bins) key at most
	// one goroutine ever reaches the analyzer, so this lock only
	// queues analyses for *different* keys.
	analyzerMu sync.Mutex
	analyzer   *scalarfield.Analyzer

	regMu      sync.RWMutex
	registered map[string]*graph.Graph
	// loaded remembers the names (not graphs) of every dataset the
	// loader has successfully produced, so Datasets() can list the
	// currently-served selection even after its graph is LRU-evicted.
	loaded map[string]bool

	snaps  *group[Key, *Snapshot]
	fields *group[fieldKey, fieldEntry]
	graphs *group[string, *graph.Graph]

	// genMu guards gens. Invalidate bumps a dataset's generation under
	// it; genGuardedStore.Add brackets each store insert with
	// generation checks under it (never holding it across the insert
	// itself), so a stale snapshot can never survive an Invalidate —
	// see genGuardedStore for the case analysis.
	genMu sync.Mutex
	gens  map[string]uint64

	// gate is admission control over analyses; nil means unlimited.
	gate *resilience.Gate
	// stale is the stale-if-error side cache: the last snapshot this
	// process analyzed or hydrated per key, deliberately NOT evicted by
	// Invalidate — it exists precisely to serve explicitly degraded
	// answers when the fresh path fails or sheds. See StaleSnapshot.
	stale *memStore[Key, *Snapshot]

	analyses atomic.Int64
}

// ClientError marks an error caused by the request — an unknown
// dataset or measure, a basis mismatch — rather than by the server.
// The HTTP layer maps ClientErrors to 400 and everything else (loader
// I/O faults, analysis failures) to 500. Loaders may return one to
// mark a bad dataset name as the client's mistake.
type ClientError struct{ Err error }

func (e *ClientError) Error() string { return e.Err.Error() }
func (e *ClientError) Unwrap() error { return e.Err }

func badRequest(format string, args ...any) error {
	return &ClientError{Err: fmt.Errorf(format, args...)}
}

// maxFields bounds the LRU of raw measure fields computed for the
// correlation operations.
const maxFields = 64

// fieldKey identifies one raw measure field over one dataset.
type fieldKey struct {
	dataset, measure string
}

type fieldEntry struct {
	values []float64
	edge   bool
}

// NewEngine returns an Engine with the given options.
func NewEngine(opts Options) *Engine {
	maxSnaps := opts.MaxSnapshots
	if maxSnaps <= 0 {
		maxSnaps = 16
	}
	maxGraphs := opts.MaxGraphs
	if maxGraphs <= 0 {
		maxGraphs = 8
	}
	store := opts.Store
	if store == nil {
		store = NewMemorySnapshotStore(maxSnaps)
	}
	e := &Engine{
		loader:       opts.Loader,
		hydrate:      opts.Hydrate,
		onAnalyze:    opts.OnAnalyze,
		onInvalidate: opts.OnInvalidate,
		genStore:     opts.Generations,
		analyzer:     scalarfield.NewAnalyzer(),
		registered:   make(map[string]*graph.Graph),
		loaded:       make(map[string]bool),
		gens:         make(map[string]uint64),
		fields:       newGroup[fieldKey, fieldEntry](maxFields),
		graphs:       newGroup[string, *graph.Graph](maxGraphs),
		stale:        newMemStore[Key, *Snapshot](maxSnaps),
	}
	if e.genStore != nil {
		if gens, err := e.genStore.Load(); err != nil {
			log.Printf("query: loading persisted generations: %v (starting at zero)", err)
		} else {
			for dataset, gen := range gens {
				e.gens[dataset] = gen
			}
		}
	}
	if opts.MaxConcurrentAnalyses > 0 {
		e.gate = resilience.NewGate(opts.MaxConcurrentAnalyses, opts.MaxAnalysisQueue)
	}
	e.store = &genGuardedStore{e: e, store: store}
	e.snaps = newGroupOver[Key, *Snapshot](e.store)
	return e
}

// genGuardedStore wraps the engine's SnapshotStore with the
// invalidation-generation insert check: a snapshot analyzed or
// hydrated under generation G is inserted only while the dataset is
// still at G. The
// check-and-insert runs under genMu — the same lock Invalidate bumps
// under — which closes the window where a completing analysis that
// raced an Invalidate could re-insert a stale snapshot after the
// eviction ran.
type genGuardedStore struct {
	e     *Engine
	store SnapshotStore
}

// Get probes the store and verifies the hit's analysis identity
// against the dataset's current generation. The Seq check closes the
// restart crash window durable generations open: Invalidate persists
// the bumped generation before evicting, so a crash between the two
// can leave a pre-bump snapshot on disk next to a post-bump generation
// file. A restarted process would load both; the mismatch here evicts
// the stale entry and reports a miss instead of serving pre-
// invalidation data under a fresh generation.
func (g *genGuardedStore) Get(key Key) (*Snapshot, bool) {
	s, ok := g.store.Get(key)
	if !ok {
		return nil, false
	}
	if s.Seq != snapshotSeq(key, g.e.generation(key.Dataset)) {
		s.Release()
		g.store.Evict(func(k Key) bool { return k == key })
		return nil, false
	}
	return s, true
}

func (g *genGuardedStore) Evict(pred func(Key) bool) { g.store.Evict(pred) }
func (g *genGuardedStore) Contains(key Key) bool     { return g.store.Contains(key) }
func (g *genGuardedStore) Len() int                  { return g.store.Len() }
func (g *genGuardedStore) Keys() []Key               { return g.store.Keys() }

func (g *genGuardedStore) Add(key Key, s *Snapshot) {
	// The store insert itself (possibly a disk encode) runs OUTSIDE
	// genMu, so a slow disk write never blocks Invalidate or the
	// generation reads at analysis start. Correctness comes from the
	// check-insert-recheck sandwich:
	//
	//   - Invalidate bumped before the first check: no insert.
	//   - Invalidate bumped during the insert or before the recheck:
	//     the recheck sees it and self-evicts the just-added entry.
	//   - Invalidate bumped after the recheck: its own eviction runs
	//     after the bump (program order in Invalidate), hence after our
	//     insert, and removes the entry.
	//
	// Either way a stale snapshot never survives; at worst both sides
	// evict once.
	//
	// The stale-if-error side cache is fed unconditionally, BEFORE the
	// generation check: a snapshot that lost the race to an Invalidate
	// is exactly what "last known good answer" means once the fresh
	// path starts failing. It is served only explicitly marked
	// degraded — see StaleSnapshot.
	g.e.stale.Add(key, s)
	g.e.genMu.Lock()
	current := g.e.gens[key.Dataset] == s.gen
	g.e.genMu.Unlock()
	if !current {
		return
	}
	g.store.Add(key, s)
	g.e.genMu.Lock()
	stale := g.e.gens[key.Dataset] != s.gen
	g.e.genMu.Unlock()
	if stale {
		g.store.Evict(func(k Key) bool { return k == key })
	}
}

// generation returns the dataset's current invalidation generation.
func (e *Engine) generation(dataset string) uint64 {
	e.genMu.Lock()
	defer e.genMu.Unlock()
	return e.gens[dataset]
}

// snapshotSeq derives the deterministic analysis identity of (key,
// generation): an FNV-1a hash, never zero so clients can treat zero as
// "no snapshot". Determinism is what makes fleet responses and
// disk-restored snapshots indistinguishable from locally analyzed
// ones. It runs on every cache hit, so it hashes key.ShardString()'s
// bytes in place, then the generation's 8 little-endian bytes, without
// building the string or a hash.Hash.
func snapshotSeq(key Key, gen uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	str := func(s string) {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * prime64
		}
		h *= prime64 // the \x00 separator: h ^ 0 == h
	}
	str(key.Dataset)
	str(key.Measure)
	str(key.Color)
	var bins [20]byte
	for _, b := range strconv.AppendInt(bins[:0], int64(key.Bins), 10) {
		h = (h ^ uint64(b)) * prime64
	}
	for i := 0; i < 8; i++ {
		h = (h ^ (gen>>(8*i))&0xff) * prime64
	}
	if h == 0 {
		h = 1
	}
	return h
}

// RegisterDataset makes a graph queryable under the given name,
// pinned: registered datasets are never evicted. Registering is meant
// for startup; re-registering a name with a different graph replaces
// it for future analyses but does not invalidate snapshots already
// cached — call Invalidate for that.
func (e *Engine) RegisterDataset(name string, g *graph.Graph) {
	e.regMu.Lock()
	e.registered[name] = g
	e.regMu.Unlock()
}

// Datasets returns every known dataset name, sorted: the registered
// ones plus any the loader has successfully produced on demand.
func (e *Engine) Datasets() []string {
	e.regMu.RLock()
	names := make([]string, 0, len(e.registered)+len(e.loaded))
	for name := range e.registered {
		names = append(names, name)
	}
	for name := range e.loaded {
		if _, dup := e.registered[name]; !dup {
			names = append(names, name)
		}
	}
	e.regMu.RUnlock()
	sort.Strings(names)
	return names
}

// Graph resolves a dataset name: registered graphs first, then the
// on-demand loader (coalesced and LRU-cached).
func (e *Engine) Graph(dataset string) (*graph.Graph, error) {
	e.regMu.RLock()
	g, ok := e.registered[dataset]
	e.regMu.RUnlock()
	if ok {
		return g, nil
	}
	if e.loader == nil {
		return nil, badRequest("query: unknown dataset %q (registered: %v)", dataset, e.Datasets())
	}
	return e.graphs.Do(dataset, func() (*graph.Graph, error) {
		g, err := e.loader(dataset)
		if err != nil {
			return nil, fmt.Errorf("query: loading dataset %q: %w", dataset, err)
		}
		e.regMu.Lock()
		e.loaded[dataset] = true
		e.regMu.Unlock()
		return g, nil
	})
}

// Snapshot returns the immutable analysis for key, producing it at
// most once no matter how many goroutines ask concurrently: the first
// requester runs the pooled analysis, everyone else waits for and
// shares its result. Errors are returned to every waiter and not
// cached.
func (e *Engine) Snapshot(key Key) (*Snapshot, error) {
	return e.SnapshotCtx(context.Background(), key)
}

// SnapshotCtx is Snapshot with a bounded wait: when ctx ends first,
// the caller gets ctx's error immediately while the analysis itself
// keeps running detached — coalesced waiters that are still alive get
// its result, and the snapshot lands in the cache for the next
// request. An abandoned HTTP request therefore never pins (or kills)
// an analysis goroutine; analysis concurrency is bounded by the
// admission gate, not by request lifetimes.
func (e *Engine) SnapshotCtx(ctx context.Context, key Key) (*Snapshot, error) {
	if err := ValidateKey(key); err != nil {
		return nil, err
	}
	return e.snaps.DoCtx(ctx, key, func() (*Snapshot, error) { return e.analyze(key) })
}

// StaleSnapshot returns the last snapshot this process analyzed or
// hydrated for key, if any — including one produced before an
// Invalidate. It is the stale-if-error fallback: when the fresh path
// fails (analysis error, admission shed), the HTTP layer serves this
// answer with an explicit `degraded: stale` marker rather than an
// opaque error.
// Never serve it unmarked: unlike a cache hit it may predate the
// dataset's current generation.
func (e *Engine) StaleSnapshot(key Key) (*Snapshot, bool) {
	return e.stale.Get(key)
}

// Cached reports whether key currently has a cached snapshot.
func (e *Engine) Cached(key Key) bool { return e.snaps.cached(key) }

// AnalysisCount reports how many analyses have actually run — cache
// misses after coalescing, hydrated ones excluded. The concurrency
// and fleet tests assert on it.
func (e *Engine) AnalysisCount() int64 { return e.analyses.Load() }

// Invalidate drops every cached snapshot and field of the named
// dataset, and the dataset's on-demand-loaded graph. Readers holding
// old snapshots are unaffected; the next request re-analyzes. This is
// the hook a streaming updater (internal/stream) calls after mutating
// a dataset.
//
// Invalidate also wins against analyses still in flight: the dataset's
// generation is bumped before the eviction, and the insert guard
// declines any snapshot analyzed under an older generation, so a
// completing flight cannot re-insert a stale snapshot after its key
// was evicted. (The flight's own waiters still receive the stale
// result — they asked before the invalidation, same as a reader
// already holding the old snapshot.)
func (e *Engine) Invalidate(dataset string) {
	e.genMu.Lock()
	// Saturate rather than wrap: a peer may broadcast the maximal
	// generation, and wrapping to 0 would move it backwards.
	if e.gens[dataset] < math.MaxUint64 {
		e.gens[dataset]++
	}
	gen := e.gens[dataset]
	e.genMu.Unlock()
	e.persistAndEvict(dataset, gen)
	if e.onInvalidate != nil {
		e.onInvalidate(dataset, gen)
	}
}

// AdoptGeneration applies an invalidation learned from a peer: raise
// the dataset's generation to gen (never lower it — stale broadcasts
// and redeliveries are no-ops), persist, and evict like a local
// Invalidate. Unlike Invalidate it carries the peer's absolute
// generation rather than bumping, so every node that has adopted the
// same broadcast derives the same Snapshot.Seq — which is what keeps
// peer snapshot fetches verifiable fleet-wide. Returns whether the
// generation changed. OnInvalidate does not fire: adopted bumps are
// already someone's broadcast.
func (e *Engine) AdoptGeneration(dataset string, gen uint64) bool {
	e.genMu.Lock()
	if gen <= e.gens[dataset] {
		e.genMu.Unlock()
		return false
	}
	e.gens[dataset] = gen
	e.genMu.Unlock()
	e.persistAndEvict(dataset, gen)
	return true
}

// persistAndEvict is the tail of both invalidation paths: record the
// dataset's new generation gen, then drop its cached snapshots, fields
// and graph.
//
// Persist before evicting: if the process dies between the two, a
// restart loads the new generation and the Seq check in
// genGuardedStore.Get treats the un-evicted stale snapshots as misses.
// The reverse order would resurrect pre-invalidation data. The persist
// runs outside genMu (GenerationStore.Save is internally monotonic), so
// a slow disk never blocks the generation reads at analysis start.
func (e *Engine) persistAndEvict(dataset string, gen uint64) {
	if e.genStore != nil {
		if err := e.genStore.Save(dataset, gen); err != nil {
			log.Printf("query: %v", err)
		}
	}
	e.snaps.evict(func(k Key) bool { return k.Dataset == dataset })
	e.fields.evict(func(k fieldKey) bool { return k.dataset == dataset })
	e.graphs.evict(func(name string) bool { return name == dataset })
}

// DatasetGeneration reports the dataset's current invalidation
// generation — the number a fleet broadcast carries and a peer fetch
// verifies against.
func (e *Engine) DatasetGeneration(dataset string) uint64 {
	return e.generation(dataset)
}

// ExpectedSeq reports the analysis identity a snapshot of key must
// carry to be current: snapshotSeq over the key and the dataset's
// generation. Peer snapshot exchange verifies received snapshots
// against it before adopting them.
func (e *Engine) ExpectedSeq(key Key) uint64 {
	return snapshotSeq(key, e.generation(key.Dataset))
}

// AdoptSnapshot inserts a snapshot this process did not analyze — one
// pushed by a peer handing off ownership — through the same
// generation guard as local analyses. The snapshot must carry the Seq
// the key's current generation demands; a mismatch (the push raced an
// invalidation, or the sender's history diverged) is rejected, since
// adopting it would serve another generation's data under this one's
// identity.
func (e *Engine) AdoptSnapshot(snap *Snapshot) error {
	gen := e.generation(snap.Key.Dataset)
	if want := snapshotSeq(snap.Key, gen); snap.Seq != want {
		return fmt.Errorf("query: adopting snapshot for %v: seq %d does not match generation %d (want %d)",
			snap.Key, snap.Seq, gen, want)
	}
	snap.gen = gen
	e.store.Add(snap.Key, snap)
	return nil
}

// ValidateKey checks the request-shaped parts of a key — measure and
// color must be registered and share a basis, and bins must lie in
// [0, scalarfield.MaxSimplifyBins] — returning a ClientError on
// violation. Snapshot runs it before consulting the store, so key
// mistakes surface as 400s without a peer fetch or an analysis, while
// genuine pipeline failures stay 500s.
func ValidateKey(key Key) error {
	if key.Bins < 0 || key.Bins > scalarfield.MaxSimplifyBins {
		return badRequest("query: bins %d outside [0, %d]", key.Bins, scalarfield.MaxSimplifyBins)
	}
	info, ok := scalarfield.LookupMeasure(key.Measure)
	if !ok {
		return badRequest("query: unknown measure %q", key.Measure)
	}
	if key.Color != "" {
		cInfo, ok := scalarfield.LookupMeasure(key.Color)
		if !ok {
			return badRequest("query: unknown color measure %q", key.Color)
		}
		if cInfo.Edge != info.Edge {
			return badRequest("query: color measure %q and height measure %q disagree on vertex/edge basis",
				key.Color, key.Measure)
		}
	}
	return nil
}

// analyze is the cache-miss path: hydrate the snapshot if the Hydrate
// hook has it, else resolve the graph, run the pooled pipeline, and
// bundle the products into an immutable Snapshot.
func (e *Engine) analyze(key Key) (*Snapshot, error) {
	if e.hydrate != nil {
		// The flight's insert guard declines the snapshot if an
		// Invalidate lands after this read, as it would an analysis.
		gen := e.generation(key.Dataset)
		if snap, ok := e.hydrate(key, gen); ok {
			snap.gen = gen
			return snap, nil
		}
	}
	// Admission control: claim an analysis slot (or a bounded queue
	// position) before touching the graph — the expensive part of a
	// flight is everything from graph resolution on. A shed flight
	// fails all its coalesced waiters with ErrOverloaded; the error is
	// not cached, so the next request retries. The wait itself is
	// deliberately not bound by any requester's context: the flight is
	// detached and its result benefits future requests.
	if e.gate != nil {
		release, err := e.gate.Acquire(context.Background())
		if err != nil {
			return nil, fmt.Errorf("query: analysis of %v shed: %w", key, err)
		}
		defer release()
	}
	// The generation is captured before the graph resolves: an
	// Invalidate that lands anywhere after this point makes the
	// resulting snapshot stale, and the insert guard will decline it.
	gen := e.generation(key.Dataset)
	g, err := e.Graph(key.Dataset)
	if err != nil {
		return nil, err
	}
	// Closure so the analyzer lock releases on panic too: net/http
	// recovers handler panics, and a stuck analyzerMu would block
	// every future cache miss forever.
	res, err := func() (*scalarfield.Analysis, error) {
		e.analyzerMu.Lock()
		defer e.analyzerMu.Unlock()
		return e.analyzer.AnalyzeAll(g, key.Measure, scalarfield.AnalyzeOptions{
			SimplifyBins: key.Bins,
			ColorBy:      key.Color,
		})
	}()
	if err != nil {
		return nil, err
	}
	e.analyses.Add(1)
	if e.onAnalyze != nil {
		e.onAnalyze(key)
	}
	return &Snapshot{
		Key:         key,
		Seq:         snapshotSeq(key, gen),
		gen:         gen,
		Graph:       g,
		Edge:        res.Edge,
		Values:      res.Values,
		ColorValues: res.ColorValues,
		Terrain:     res.Terrain,
		Spectrum:    contour.NewSpectrum(res.Terrain.Tree),
	}, nil
}

// fieldValues resolves the raw field of a registered measure over the
// snapshot's graph, for the correlation operations. The snapshot's own
// height and color fields are served from the snapshot itself; other
// measures are computed once and LRU-cached per (dataset, measure).
func (e *Engine) fieldValues(snap *Snapshot, measure string) ([]float64, bool, error) {
	switch {
	case measure == snap.Key.Measure:
		return snap.Values, snap.Edge, nil
	case measure != "" && measure == snap.Key.Color && snap.ColorValues != nil:
		return snap.ColorValues, snap.Edge, nil
	}
	entry, err := e.fields.Do(fieldKey{dataset: snap.Key.Dataset, measure: measure}, func() (fieldEntry, error) {
		values, edge, err := scalarfield.MeasureValues(snap.Graph, measure, false)
		if err != nil {
			return fieldEntry{}, err
		}
		return fieldEntry{values: values, edge: edge}, nil
	})
	if err != nil {
		return nil, false, err
	}
	return entry.values, entry.edge, nil
}
