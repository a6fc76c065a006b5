// Command serve hosts the interactive terrain viewer: the paper's
// Section II-E user interactions — rotate, zoom, simplification, peak
// selection, and linked 2D displays — exposed over HTTP with no
// dependencies beyond the standard library.
//
// Usage:
//
//	serve -dataset GrQc -measure kcore -addr :8080
//	serve -input mygraph.txt -measure ktruss
//
// Then open http://localhost:8080/. The page renders the terrain and
// offers:
//
//	rotate / zoom        re-render with new camera parameters
//	treemap              the linked 2D view of Figure 5(a)
//	click on treemap     select a peak; a spring-layout node-link view
//	                     of the selected component appears beside it
//	                     (the "Linked-2D-Displays callback")
//	α slider             list maximal α-connected components
//	spectrum             the contour spectrum B0(α) curve as JSON
//	measure selector     switch the served measure at runtime
//	                     (/measure?name=ktruss)
//
// The server is a thin frontend over internal/query: every analysis
// lives in an immutable Snapshot cached per (dataset, measure, color,
// bins) key, so /measure is a cache lookup — switching back to a
// recently served measure swaps instantly, concurrent switches never
// tear a response, and N concurrent requests for an uncached key run
// one analysis through one pooled scalarfield.Analyzer. The startup
// dataset registers at boot; any other Table I dataset loads on
// demand (/measure?dataset=Astro), generated at the startup -scale
// and -seed.
//
// POST /api/v1/query is the batched query API: a list of operations
// (alpha_cut, peaks, mcc, component_of, spectrum, lci, gci) answered
// from one consistent snapshot. See the README's "Batch query API"
// section for request/response shapes.
//
// With -store-dir, snapshots persist to disk in the wire format and a
// restarted server serves yesterday's analyses without re-running
// them. With -shard-id and -peers, the server joins a fleet: a
// consistent-hash ring over the snapshot key decides which node owns
// each analysis, batch queries for non-owned keys are forwarded to the
// owner and relayed byte-for-byte, and singleflight on the owner keeps
// the whole fleet at one analysis per key. Membership is elastic:
// -peers seeds a gossiped membership view, nodes join and leave at
// runtime, local misses hydrate from peers' snapshots, and SIGTERM
// drains gracefully (readiness flip, ownership handoff). See the
// README's "Running a shard fleet" and "Elastic fleet" sections.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"html/template"
	"image/color"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	scalarfield "repro"
	"repro/internal/baselines"
	"repro/internal/datasets"
	"repro/internal/fleet"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/render"
	"repro/internal/resilience"
	"repro/internal/shard"
	"repro/internal/terrain"
)

func main() {
	var (
		addr    = flag.String("addr", "localhost:8080", "listen address")
		input   = flag.String("input", "", "edge list file (SNAP format); mutually exclusive with -dataset")
		dataset = flag.String("dataset", "GrQc", "synthetic Table I dataset name")
		scale   = flag.Float64("scale", 0.1, "scale factor for -dataset and on-demand datasets")
		seed    = flag.Int64("seed", 42, "generation seed")
		measure = flag.String("measure", "kcore",
			"height measure: "+strings.Join(scalarfield.Measures(), "|"))
		colorBy  = flag.String("color", "", "optional second measure for terrain color (same basis)")
		bins     = flag.Int("bins", 0, "simplification bins (0 = exact)")
		storeDir = flag.String("store-dir", "",
			"persist snapshots to this directory (served across restarts); empty = in-memory LRU")
		mmapGraphs = flag.Bool("mmap-graphs", false,
			"serve disk-store cold hits with the graph section mmap'd in place instead of copied to the heap (requires -store-dir)")
		shardID = flag.String("shard-id", "",
			"this node's name in a shard fleet; requires -peers")
		peers = flag.String("peers", "",
			"comma-separated id=url seed members, e.g. a=http://host1:8080,b=http://host2:8080; when -shard-id is among them this node is a founding member, otherwise it joins the fleet through them")
		advertise = flag.String("advertise", "",
			"base URL other fleet members reach this node at (default: this node's -peers entry, else http://<addr>)")
		forwardTimeout = flag.Duration("forward-timeout", 15*time.Minute,
			"end-to-end timeout for requests forwarded to the owning shard; generous because an owner analyzing a big dataset legitimately holds forwards for minutes")
		probeTimeout = flag.Duration("probe-timeout", 2*time.Second,
			"per-attempt timeout for peer membership calls (gossip probe, join, drain announcement) and invalidation broadcasts; short because a peer that takes longer than this is indistinguishable from a dead one")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second,
			"graceful-drain deadline on SIGTERM/SIGINT: in-flight requests finish and owned snapshots hand off to their new owners within this budget before the process exits")
		maxAnalyses = flag.Int("max-analyses", 4,
			"admission control: analysis flights admitted at once (0 = unlimited); admitted flights load graphs concurrently but run the analysis pipeline one at a time; excess flights beyond the queue are shed with 503 Retry-After")
		analysisQueue = flag.Int("analysis-queue", 16,
			"admission control: flights allowed to wait for an analysis slot before shedding starts")
		breakerThreshold = flag.Int("breaker-threshold", 3,
			"consecutive forward/probe failures that open a peer's circuit breaker")
		breakerCooldown = flag.Duration("breaker-cooldown", 2*time.Second,
			"base cooldown of an open peer breaker before a half-open probe (doubles per repeated trip)")
		probeInterval = flag.Duration("probe-interval", 5*time.Second,
			"membership-gossip probe period per peer: a GET of its /api/v1/fleet/view (backs off exponentially while a peer is down)")
	)
	flag.Parse()
	srv, err := newServer(serverConfig{
		input: *input, dataset: *dataset, scale: *scale, seed: *seed,
		measure: *measure, colorBy: *colorBy, bins: *bins, storeDir: *storeDir,
		mmapGraphs:     *mmapGraphs,
		forwardTimeout: *forwardTimeout, probeTimeout: *probeTimeout,
		maxAnalyses: *maxAnalyses, analysisQueue: *analysisQueue,
		breakerThreshold: *breakerThreshold, breakerCooldown: *breakerCooldown,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	if *shardID != "" || *peers != "" {
		seeds, err := parsePeers(*peers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		if *shardID == "" {
			fmt.Fprintln(os.Stderr, "serve: -peers requires -shard-id")
			os.Exit(1)
		}
		selfURL := strings.TrimSuffix(*advertise, "/")
		if selfURL == "" {
			selfURL = seeds[*shardID]
		}
		if selfURL == "" {
			selfURL = "http://" + *addr
		}
		seedMembers := make([]fleet.Member, 0, len(seeds))
		for id, url := range seeds {
			if id == *shardID {
				url = selfURL
			}
			seedMembers = append(seedMembers, fleet.Member{ID: id, URL: url})
		}
		err = srv.startFleet(fleetConfig{
			self:      fleet.Member{ID: *shardID, URL: selfURL},
			seeds:     seedMembers,
			probeOpts: resilience.ProbeOptions{Interval: *probeInterval},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		log.Printf("fleet node %s at %s (%d seeds, probing peers every %v)",
			*shardID, selfURL, len(seedMembers), *probeInterval)
	}
	snap, err := srv.snapshot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	log.Printf("terrain viewer on http://%s/ (%s, measure=%s, %d super nodes)",
		*addr, snap.Key.Dataset, snap.Key.Measure, snap.Terrain.Tree.Len())
	snap.Release()

	httpSrv := &http.Server{Addr: *addr, Handler: srv.routes()}
	go func() {
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
		<-sigc
		log.Printf("serve: draining (deadline %v)", *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		// Order matters: flip readiness and announce departure first
		// (load balancers and peers stop sending new work), hand owned
		// snapshots off, then let in-flight requests finish.
		srv.drain(ctx)
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("serve: shutdown: %v", err)
		}
	}()
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	log.Printf("serve: drained, exiting")
}

// parsePeers parses the -peers flag: comma-separated id=url entries.
func parsePeers(spec string) (map[string]string, error) {
	if spec == "" {
		return nil, fmt.Errorf("-shard-id requires -peers")
	}
	peers := make(map[string]string)
	for _, entry := range strings.Split(spec, ",") {
		id, url, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want id=url)", entry)
		}
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("duplicate -peers id %q", id)
		}
		peers[id] = strings.TrimSuffix(url, "/")
	}
	return peers, nil
}

// server is a thin multi-dataset frontend over the query engine. Its
// only mutable state is the viewer's current selection — a snapshot
// Key — plus the sticky color preference; everything heavy (graphs,
// terrains, spectra, fields) lives in the engine's immutable,
// cache-coalesced snapshots. Handlers resolve the current Key to a
// Snapshot and read only that, so every response is internally
// consistent even while measures and datasets flip concurrently.
type server struct {
	bins   int
	engine *query.Engine

	mu      sync.RWMutex
	current query.Key
	// want is the latest requested selection. It runs ahead of current
	// while a cache-miss analysis is still in flight in the background:
	// the viewer keeps serving current (the stale snapshot) and swaps to
	// want when its analysis lands — unless a newer request superseded
	// it first. want == current means the selection is settled.
	want query.Key
	// colorPref is the sticky color preference (the -color flag or the
	// last explicit color= override). The served Key.Color may drop it
	// for measures on the other basis; the preference survives the
	// round trip.
	colorPref string
	// bgErr records the most recent background-analysis failure, so a
	// polling client can tell "the switch failed, pending cleared back
	// to the old selection" from "the switch landed". A new switch
	// request or a successful swap clears it.
	bgErr string

	// routing is what the batch API routes by, installed whole by
	// fleetRuntime.applyView on every adopted view change; nil when the
	// node is unsharded. Only the batch API routes; the viewer
	// endpoints always serve the local selection.
	routing atomic.Pointer[routing]
	// fleet is the membership runtime (nil when unsharded); stored once
	// by startFleet before traffic.
	fleet atomic.Pointer[fleetRuntime]

	// draining flips when a graceful drain begins: /readyz answers 503
	// so probes and load balancers steer new work away, while /healthz
	// (liveness) keeps answering 200 until the process exits.
	draining atomic.Bool

	// store is the snapshot store beneath the engine. The
	// snapshot-exchange endpoint answers peer fetches from it and the
	// ownership handoff walks it; neither ever hydrates.
	store query.SnapshotStore
	// peers is the engine's Hydrate hook: a flight's miss backfills
	// from the key's ring owner before analysis runs. Always non-nil
	// (with no fleet its Peers hook returns nothing and every fetch
	// misses at once).
	peers *query.PeerFetcher

	// breakers holds one circuit breaker per peer base URL, shared by
	// the forwarding path (passive outcomes) and the membership-gossip
	// probe loops, so either signal can open a peer and either can
	// close it.
	breakers *resilience.BreakerSet
	// client carries every outbound peer call. Its Timeout is
	// forwardTimeout, which bounds forwards, hydration fetches and
	// handoff pushes; membership calls (probe, join, drain
	// announcement) and invalidation broadcasts bound each attempt by
	// the shorter probeTimeout.
	client       *http.Client
	probeTimeout time.Duration
	// snapshots serves the snapshot-exchange endpoint (peer fetches
	// and handoff pushes).
	snapshots *query.SnapshotHandler

	// epochMismatches counts forwarded requests that arrived stamped
	// with a view epoch different from ours — the detector for two
	// nodes routing one key by different rings during a membership
	// transition.
	epochMismatches atomic.Int64
	// onEpochMismatch is a test/metrics hook (serverConfig).
	onEpochMismatch func(remote, local uint64)
}

// serverConfig collects newServer's startup parameters (the flags).
type serverConfig struct {
	input    string
	dataset  string
	scale    float64
	seed     int64
	measure  string
	colorBy  string
	bins     int
	storeDir string
	// mmapGraphs enables the disk store's zero-copy cold-hit path:
	// graph sections are mmap'd and served in place.
	mmapGraphs bool
	// onAnalyze is a test/metrics hook forwarded to the engine.
	onAnalyze func(query.Key)

	// forwardTimeout bounds one attempt of a forwarded batch query, a
	// snapshot fetch or a handoff push end-to-end (0 = 15 minutes,
	// matching the -forward-timeout flag); probeTimeout bounds one
	// attempt of a membership call or invalidation broadcast (0 = 2s,
	// matching -probe-timeout).
	forwardTimeout time.Duration
	probeTimeout   time.Duration
	// maxAnalyses/analysisQueue configure admission control (0 max =
	// unlimited, no shedding).
	maxAnalyses   int
	analysisQueue int
	// breakerThreshold/breakerCooldown configure per-peer circuit
	// breakers (0 = resilience package defaults).
	breakerThreshold int
	breakerCooldown  time.Duration
	// store overrides the snapshot store (tests wrap a DiskStore in a
	// fault injector); when set, storeDir is ignored.
	store query.SnapshotStore
	// transport overrides the peer client's RoundTripper (tests inject
	// faults); nil means http.DefaultTransport.
	transport http.RoundTripper
	// onFetch/onPush/onEpochMismatch are test/metrics hooks: a snapshot
	// hydrated from a peer, a handoff push adopted, and a forwarded
	// request whose view-epoch stamp disagreed with ours.
	onFetch         func(key query.Key, peer string)
	onPush          func(query.Key)
	onEpochMismatch func(remote, local uint64)
}

// routing is one adopted membership view as the request paths see it:
// this node's member ID, the ring over the view's active members (nil
// when none is active, as when a lone node drains) and every member's
// base URL. Immutable once installed.
type routing struct {
	self string
	ring *shard.Ring
	urls map[string]string
}

// owner returns the ring owner's member ID for a key ("" when the
// node is unsharded or no member is active).
func (r *routing) owner(k query.Key) string {
	if r == nil || r.ring == nil {
		return ""
	}
	return r.ring.Owner(k.ShardString())
}

// route is the query.Handler Route hook: resolve the key's owner on
// the ring; forward when it is another member.
func (s *server) route(k query.Key) (string, bool) {
	r := s.routing.Load()
	owner := r.owner(k)
	if owner == "" || owner == r.self {
		return "", false
	}
	return r.urls[owner], true
}

func newServer(cfg serverConfig) (*server, error) {
	if cfg.mmapGraphs && cfg.storeDir == "" {
		return nil, fmt.Errorf("-mmap-graphs requires -store-dir")
	}
	var (
		g    *graph.Graph
		name string
		err  error
	)
	if cfg.input != "" {
		f, err := os.Open(cfg.input)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		g, _, err = graph.ReadEdgeList(f)
		if err != nil {
			return nil, err
		}
		name = cfg.input
	} else {
		g, err = datasets.Generate(cfg.dataset, cfg.scale, cfg.seed)
		if err != nil {
			return nil, err
		}
		name = cfg.dataset
	}

	store := cfg.store
	if store == nil && cfg.storeDir != "" {
		// Disk-backed snapshots: analyses survive restarts, at the cost
		// of an encode per insert and a decode per cold hit. In mmap
		// mode the cold-hit graph is served straight off the file.
		store, err = query.NewDiskStoreOptions(cfg.storeDir,
			query.DiskStoreOptions{MmapGraphs: cfg.mmapGraphs})
		if err != nil {
			return nil, err
		}
	}
	if store == nil {
		// Explicit rather than the engine's internal default so the
		// snapshot-exchange endpoint has a store to serve GETs from;
		// 16 matches the engine's own default bound.
		store = query.NewMemorySnapshotStore(16)
	}
	var gens query.GenerationStore
	if cfg.storeDir != "" {
		// Durable invalidation generations live beside the snapshots:
		// Snapshot.Seq equality — the fleet's analysis identity —
		// survives restarts.
		gens, err = query.NewGenerationFile(filepath.Join(cfg.storeDir, "generations"))
		if err != nil {
			return nil, err
		}
	}
	forwardTimeout := cfg.forwardTimeout
	if forwardTimeout <= 0 {
		// Finite but generous: an owner analyzing a big stand-in can
		// legitimately hold a forwarded request for minutes (the viewer
		// polls up to 10), but a hung owner must eventually trip the
		// local fallback instead of wedging relays forever.
		forwardTimeout = 15 * time.Minute
	}
	probeTimeout := cfg.probeTimeout
	if probeTimeout <= 0 {
		probeTimeout = 2 * time.Second
	}
	scale, seed := cfg.scale, cfg.seed
	s := &server{
		bins: cfg.bins,
		breakers: resilience.NewBreakerSet(resilience.BreakerConfig{
			Threshold: cfg.breakerThreshold,
			Cooldown:  cfg.breakerCooldown,
		}),
		client:          &http.Client{Transport: cfg.transport, Timeout: forwardTimeout},
		probeTimeout:    probeTimeout,
		onEpochMismatch: cfg.onEpochMismatch,
	}
	s.store = store
	s.peers = &query.PeerFetcher{
		Owner:    s.ringOwnerID,
		Peers:    s.peerFetchCandidates,
		Client:   s.client,
		Breakers: s.breakers,
		OnFetch:  cfg.onFetch,
	}
	s.engine = query.NewEngine(query.Options{
		Store:                 store,
		Hydrate:               s.peers.Fetch,
		Generations:           gens,
		OnInvalidate:          s.broadcastInvalidation,
		OnAnalyze:             cfg.onAnalyze,
		MaxConcurrentAnalyses: cfg.maxAnalyses,
		MaxAnalysisQueue:      cfg.analysisQueue,
		// Any Table I dataset the viewer asks for later is
		// generated on demand at the startup scale and seed. A
		// generation error here can only be an unknown name —
		// the client's typo, so mark it a ClientError (HTTP 400).
		Loader: func(name string) (*graph.Graph, error) {
			g, err := datasets.Generate(name, scale, seed)
			if err != nil {
				return nil, &query.ClientError{Err: err}
			}
			return g, nil
		},
	})
	s.snapshots = &query.SnapshotHandler{
		Engine: s.engine,
		// The store's Get, not the engine's Snapshot: answering a
		// peer's fetch must never fan out into fetching or analysis.
		Local:  store.Get,
		OnPush: cfg.onPush,
	}
	s.engine.RegisterDataset(name, g)
	s.current = query.Key{Dataset: name, Bins: cfg.bins}
	s.want = s.current
	// The raw flag value, not colorFor: a cross-basis -color is a
	// startup error, not something to silently drop. Startup blocks on
	// the first analysis — there is no previous snapshot to serve yet.
	if _, err := s.setSelection(name, cfg.measure, cfg.colorBy, true, true); err != nil {
		return nil, err
	}
	return s, nil
}

// setSelection points the viewer at (dataset, measure, colorBy).
// Validation (measure names, color basis, dataset resolution) is
// synchronous, so client mistakes surface on this request. A key with
// a cached snapshot swaps immediately. On a cache miss — unless block
// forces the old synchronous behavior — the viewer keeps serving the
// current stale snapshot and the analysis runs in the background: the
// engine's singleflight makes concurrent requests for one key run it
// exactly once, and the selection swaps when the analysis lands,
// unless a newer request superseded it first. Returns pending=true
// when the swap was deferred. With rememberColor, colorBy becomes the
// sticky preference as soon as the request validates.
func (s *server) setSelection(dataset, measure, colorBy string, rememberColor, block bool) (pending bool, err error) {
	if _, ok := scalarfield.LookupMeasure(measure); !ok {
		return false, fmt.Errorf("unknown measure %q (try one of %s)",
			measure, strings.Join(scalarfield.Measures(), ", "))
	}
	key := query.Key{Dataset: dataset, Measure: measure, Color: colorBy, Bins: s.bins}
	if err := query.ValidateKey(key); err != nil {
		return false, err
	}
	// Resolve the dataset up front: an unknown name stays a synchronous
	// client error, and generation is cheap next to analysis.
	if _, err := s.engine.Graph(dataset); err != nil {
		return false, err
	}
	if block || s.engine.Cached(key) {
		snap, err := s.engine.Snapshot(key)
		if err != nil {
			return false, err
		}
		snap.Release() // warmed the cache; this handler keeps nothing

		s.mu.Lock()
		s.current, s.want = key, key
		s.bgErr = ""
		if rememberColor {
			s.colorPref = colorBy
		}
		s.mu.Unlock()
		return false, nil
	}
	s.mu.Lock()
	s.want = key
	s.bgErr = ""
	if rememberColor {
		s.colorPref = colorBy
	}
	s.mu.Unlock()
	go func() {
		snap, err := s.engine.Snapshot(key)
		if err == nil {
			snap.Release() // warmed the cache; nothing retained here
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.want != key {
			return // superseded by a newer selection
		}
		if err != nil {
			// The background analysis failed: stop advertising it as
			// pending, keep serving the last good snapshot, and record
			// the failure so polling clients see why the swap never
			// landed.
			log.Printf("background analysis for %+v failed: %v", key, err)
			s.want = s.current
			s.bgErr = fmt.Sprintf("analysis of (%s, %s) failed: %v", key.Dataset, key.Measure, err)
			return
		}
		s.current = key
	}()
	return true, nil
}

// currentKey returns the viewer's served selection; it is also the
// Defaults hook of the batch query handler.
func (s *server) currentKey() query.Key {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.current
}

// wantKey returns the latest requested selection — ahead of currentKey
// while a background analysis is in flight. Switch requests default
// their missing halves from it, so a partial switch composes with an
// acknowledged in-flight one instead of silently reverting it.
func (s *server) wantKey() query.Key {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.want
}

// snapshot resolves the current selection to its immutable snapshot —
// a cache hit in the steady state.
func (s *server) snapshot() (*query.Snapshot, error) {
	return s.engine.Snapshot(s.currentKey())
}

// colorFor resolves the preferred color measure (the -color flag, or
// the last explicit color= override) against the named height measure:
// it carries over while it shares the measure's vertex/edge basis and
// is dropped — for this analysis only, the preference stays — when it
// does not. Keeping the preference sticky means kcore→ktruss→kcore
// round-trips restore the original coloring.
func (s *server) colorFor(measure string) string {
	s.mu.RLock()
	colorBy := s.colorPref
	s.mu.RUnlock()
	if colorBy == "" {
		return ""
	}
	mInfo, ok := scalarfield.LookupMeasure(measure)
	cInfo, cok := scalarfield.LookupMeasure(colorBy)
	if !ok || !cok || mInfo.Edge != cInfo.Edge {
		return ""
	}
	return colorBy
}

func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/terrain.png", s.handleTerrain)
	mux.HandleFunc("/treemap.png", s.handleTreemap)
	mux.HandleFunc("/linked.png", s.handleLinked)
	mux.HandleFunc("/peaks", s.handlePeaks)
	mux.HandleFunc("/select", s.handleSelect)
	mux.HandleFunc("/spectrum", s.handleSpectrum)
	mux.HandleFunc("/measure", s.handleMeasure)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/api/v1/fleet/view", s.handleFleetView)
	mux.HandleFunc("/api/v1/fleet/join", s.handleFleetJoin)
	mux.HandleFunc("/api/v1/fleet/gossip", s.handleFleetGossip)
	mux.Handle("/api/v1/invalidate", &query.InvalidationHandler{Engine: s.engine})
	mux.Handle("/api/v1/snapshot/", s.snapshots)
	mux.Handle("/api/v1/query", &query.Handler{
		Engine: s.engine, Defaults: s.currentKey, Route: s.route,
		Client:   s.client,
		Breakers: s.breakers,
		// Serving a marked-stale snapshot beats a 500 when a re-analysis
		// fails under load or injected faults.
		AllowStale: true,
		// Forwarded requests carry the sender's view epoch; a mismatch
		// means the fleet is mid-transition and two nodes may briefly
		// route one key differently. Detection (count + hook), not
		// rejection: the snapshot Seq guard keeps answers correct.
		ViewEpoch:       s.viewEpoch,
		OnEpochMismatch: s.noteEpochMismatch,
	})
	return mux
}

// viewEpoch reports the membership view epoch stamped onto forwarded
// requests; 0 when the node is unsharded.
func (s *server) viewEpoch() uint64 {
	if rt := s.fleetRuntime(); rt != nil {
		return rt.manager.Epoch()
	}
	return 0
}

// noteEpochMismatch records a forwarded request whose view-epoch stamp
// disagreed with ours.
func (s *server) noteEpochMismatch(remote, local uint64) {
	s.epochMismatches.Add(1)
	if s.onEpochMismatch != nil {
		s.onEpochMismatch(remote, local)
	}
}

// handleReadyz answers readiness probes: 503 once a drain begins, 200
// otherwise. Distinct from /healthz (liveness + identity): a draining
// node is alive — it still answers fleet gossip and snapshot fetches
// while its keys hand off — but must stop receiving new work.
func (s *server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, struct {
		Status string `json:"status"`
	}{Status: "ready"})
}

// handleHealthz is the liveness endpoint (human curiosity included):
// 200 with this node's shard identity and its view of every peer
// breaker, for as long as the process runs — even mid-drain, when
// /readyz already answers 503. The handler deliberately touches no
// engine state — a node drowning in analyses is still "up" for routing
// purposes; admission control sheds load, the breaker layer handles
// nodes that stop answering at all.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	var self string
	if r := s.routing.Load(); r != nil {
		self = r.self
	}
	writeJSON(w, struct {
		Status string                             `json:"status"`
		Shard  string                             `json:"shard,omitempty"`
		Peers  map[string]resilience.BreakerState `json:"peers,omitempty"`
	}{Status: "ok", Shard: self, Peers: s.breakers.States()})
}

// handleMeasure switches the served measure and/or dataset:
// /measure?name=ktruss re-points the viewer, /measure?dataset=Astro
// loads or generates another dataset on demand, and with no parameters
// it reports the current selection and the registry. A switch to a
// cached key swaps instantly; a cache miss answers immediately from
// the current stale snapshot with pending=true and requestedMeasure/
// requestedDataset echoing the in-flight selection — the analysis runs
// in the background (exactly once, via the engine's singleflight) and
// the viewer swaps when it lands. Clients poll /measure until pending
// clears. The startup -color measure carries over across switches
// while its basis matches; pass an explicit color= (possibly empty) to
// override.
func (s *server) handleMeasure(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	ds := r.URL.Query().Get("dataset")
	if name != "" || ds != "" {
		// Defaults come from the latest requested selection, not the
		// (possibly stale) served one: /measure?dataset=X issued while
		// a measure switch is still pending must keep that measure.
		want := s.wantKey()
		if name == "" {
			name = want.Measure
		}
		if ds == "" {
			ds = want.Dataset
		}
		// An explicit color= goes straight to the pipeline (a bad one
		// is the client's error to see) and becomes the sticky
		// preference; otherwise the stored preference carries over
		// where its basis fits.
		explicit := r.URL.Query().Has("color")
		var colorBy string
		if explicit {
			colorBy = r.URL.Query().Get("color")
		} else {
			colorBy = s.colorFor(name)
		}
		if _, err := s.setSelection(ds, name, colorBy, explicit, false); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	// Read the selection state atomically BEFORE resolving the
	// snapshot: resolving first would let the background swap land in
	// between, producing a response that serves the old snapshot yet
	// claims pending=false — which would end client polling on a stale
	// state. Reading (current, want) together and then resolving
	// current keeps the served measure and the pending flag from one
	// consistent selection; a later poll observes the swap.
	s.mu.RLock()
	cur, want, bgErr := s.current, s.want, s.bgErr
	s.mu.RUnlock()
	pending := cur != want
	snap, err := s.engine.Snapshot(cur)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer snap.Release()
	resp := struct {
		Dataset          string   `json:"dataset"`
		Measure          string   `json:"measure"`
		Edge             bool     `json:"edge"`
		SuperNodes       int      `json:"superNodes"`
		Available        []string `json:"available"`
		Datasets         []string `json:"datasets"`
		Pending          bool     `json:"pending"`
		RequestedDataset string   `json:"requestedDataset,omitempty"`
		RequestedMeasure string   `json:"requestedMeasure,omitempty"`
		// Error reports the most recent background-analysis failure:
		// pending=false with a non-empty error means the last switch
		// did not land and the old selection is still being served.
		Error string `json:"error,omitempty"`
	}{
		Dataset: snap.Key.Dataset, Measure: snap.Key.Measure, Edge: snap.Edge,
		SuperNodes: snap.Terrain.Tree.Len(),
		Available:  scalarfield.Measures(), Datasets: s.engine.Datasets(),
		Pending: pending, Error: bgErr,
	}
	if pending {
		resp.RequestedDataset, resp.RequestedMeasure = want.Dataset, want.Measure
	}
	writeJSON(w, resp)
}

// withSnapshot resolves the current snapshot or reports 500; handlers
// hold the returned snapshot for their whole response, so everything
// they read is from one analysis.
func (s *server) withSnapshot(w http.ResponseWriter) (*query.Snapshot, bool) {
	snap, err := s.snapshot()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return nil, false
	}
	return snap, true
}

func (s *server) handleTerrain(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.withSnapshot(w)
	if !ok {
		return
	}
	defer snap.Release()
	opts := render.Options{
		Angle:  floatParam(r, "angle", 0.6),
		Zoom:   floatParam(r, "zoom", 1),
		Width:  intParam(r, "w", 960, 64, 2048),
		Height: intParam(r, "h", 720, 64, 2048),
	}
	img := snap.Terrain.Render(opts)
	w.Header().Set("Content-Type", "image/png")
	if err := render.EncodePNG(w, img); err != nil {
		log.Printf("terrain.png: %v", err)
	}
}

func (s *server) handleTreemap(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.withSnapshot(w)
	if !ok {
		return
	}
	defer snap.Release()
	img := snap.Terrain.RenderTreemap(intParam(r, "size", 480, 64, 1024))
	w.Header().Set("Content-Type", "image/png")
	if err := render.EncodePNG(w, img); err != nil {
		log.Printf("treemap.png: %v", err)
	}
}

// handleLinked renders the paper's linked 2D display: a spring layout
// of the component selected by a click at layout coordinates (x,y).
func (s *server) handleLinked(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.withSnapshot(w)
	if !ok {
		return
	}
	defer snap.Release()
	t := snap.Terrain
	node, found := nodeAt(t, r)
	if !found {
		http.Error(w, "no node at the given point", http.StatusNotFound)
		return
	}
	items := t.Tree.SubtreeItems(node)
	vertices := itemVertices(snap, items)
	if len(vertices) > 3000 {
		vertices = vertices[:3000] // keep the interactive path responsive
	}
	sub, origIDs := graph.InducedSubgraph(snap.Graph, vertices)
	pos := baselines.SpringLayout(sub, baselines.SpringOptions{Seed: 7, Iterations: 150})
	colors := make([]color.RGBA, sub.NumVertices())
	scalars := t.Tree.Scalar
	lo, hi := scalars[0], scalars[0]
	for _, v := range scalars {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	for v := range colors {
		c := 0.5
		if hi > lo {
			c = (itemScalar(snap, origIDs[v]) - lo) / (hi - lo)
		}
		colors[v] = terrain.Colormap(c)
	}
	img := baselines.DrawNodeLink(sub, pos, colors, baselines.DrawOptions{
		Size: intParam(r, "size", 480, 64, 1024),
	})
	w.Header().Set("Content-Type", "image/png")
	if err := render.EncodePNG(w, img); err != nil {
		log.Printf("linked.png: %v", err)
	}
}

// itemVertices converts item IDs to vertex IDs: identity for vertex
// fields, edge endpoints for edge fields.
func itemVertices(snap *query.Snapshot, items []int32) []int32 {
	if !snap.Edge {
		return items
	}
	seen := map[int32]bool{}
	var verts []int32
	for _, e := range items {
		ed := snap.Graph.Edge(e)
		for _, v := range []int32{ed.U, ed.V} {
			if !seen[v] {
				seen[v] = true
				verts = append(verts, v)
			}
		}
	}
	return verts
}

// itemScalar returns the scalar of the super node owning the item; for
// edge-based fields the item is a vertex of the linked view, so the
// vertex inherits the max incident edge scalar.
func itemScalar(snap *query.Snapshot, item int32) float64 {
	tree := snap.Terrain.Tree
	if !snap.Edge {
		return tree.Scalar[tree.NodeOf[item]]
	}
	best := 0.0
	for _, e := range snap.Graph.IncidentEdges(item) {
		if v := tree.Scalar[tree.NodeOf[e]]; v > best {
			best = v
		}
	}
	return best
}

func nodeAt(t *scalarfield.Terrain, r *http.Request) (int32, bool) {
	x := floatParam(r, "x", -1)
	y := floatParam(r, "y", -1)
	if x < 0 || x > 1 || y < 0 || y > 1 {
		return 0, false
	}
	node := t.Layout.NodeAtPoint(x, y)
	return node, node >= 0
}

func (s *server) handleSelect(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.withSnapshot(w)
	if !ok {
		return
	}
	defer snap.Release()
	node, found := nodeAt(snap.Terrain, r)
	if !found {
		http.Error(w, "no node at the given point", http.StatusNotFound)
		return
	}
	// The 200 smallest item IDs, selected without sorting the subtree.
	const limit = 200
	tree := snap.Terrain.Tree
	size := tree.SubtreeSize()[node]
	items := tree.AppendSubtreeItems(make([]int32, 0, min(size, limit)), node, limit)
	writeJSON(w, struct {
		Node      int32   `json:"node"`
		Scalar    float64 `json:"scalar"`
		ItemCount int     `json:"itemCount"`
		Items     []int32 `json:"items"`
	}{node, tree.Scalar[node], int(size), items})
}

func (s *server) handlePeaks(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.withSnapshot(w)
	if !ok {
		return
	}
	defer snap.Release()
	// The tree's peaks need no terrain geometry: /peaks builds no layout.
	alpha := floatParam(r, "alpha", 0)
	writeJSON(w, struct {
		Alpha float64          `json:"alpha"`
		Peaks []query.PeakInfo `json:"peaks"`
	}{alpha, snap.Terrain.Tree.Peaks(alpha)})
}

func (s *server) handleSpectrum(w http.ResponseWriter, _ *http.Request) {
	snap, ok := s.withSnapshot(w)
	if !ok {
		return
	}
	defer snap.Release()
	writeJSON(w, snap.Spectrum)
}

var indexTmpl = template.Must(template.New("index").Parse(`<!doctype html>
<title>scalarfield terrain — {{.Name}}</title>
<style>
body { font-family: sans-serif; margin: 1em; }
.row { display: flex; gap: 1em; align-items: flex-start; }
img { border: 1px solid #ccc; }
#info { max-width: 28em; font-size: 0.9em; white-space: pre-wrap; }
</style>
<h1>{{.Name}} — {{.Nodes}} vertices, {{.Edges}} edges, <span id="super">{{.Super}}</span> super nodes</h1>
<p>
measure <select id="measure">{{$cur := .Measure}}{{range .Measures}}<option{{if eq . $cur}} selected{{end}}>{{.}}</option>{{end}}</select>
angle <input id="angle" type="range" min="0" max="6.28" step="0.05" value="0.6">
zoom <input id="zoom" type="range" min="0.5" max="6" step="0.1" value="1">
α <input id="alpha" type="number" step="any" value="0" style="width:6em">
<button onclick="loadPeaks()">peaks</button>
<a href="/spectrum">spectrum</a>
</p>
<div class="row">
  <img id="terrain" src="/terrain.png" width="640" height="480">
  <img id="treemap" src="/treemap.png" width="360" height="360"
       title="click to select a peak (linked 2D display)">
  <img id="linked" width="360" height="360" alt="linked view">
</div>
<div id="info">click the treemap to inspect a component</div>
<script>
const angle = document.getElementById('angle'), zoom = document.getElementById('zoom');
function refresh() {
  document.getElementById('terrain').src =
    '/terrain.png?angle=' + angle.value + '&zoom=' + zoom.value + '&t=' + Date.now();
}
angle.oninput = refresh; zoom.oninput = refresh;
document.getElementById('measure').onchange = async ev => {
  const resp = await fetch('/measure?name=' + ev.target.value);
  const body = await resp.text();
  document.getElementById('info').textContent = body;
  if (!resp.ok) return;
  let data;
  try { data = JSON.parse(body); } catch { return; }
  // A cache miss answers from the stale snapshot with pending=true and
  // re-analyzes in the background; poll until the new analysis lands
  // (up to 10 minutes for the big stand-ins). If the deadline passes
  // while still pending, keep showing the pending state rather than
  // rendering the stale snapshot as if it were the requested one.
  const deadline = Date.now() + 600000;
  while (data.pending && Date.now() < deadline) {
    await new Promise(r => setTimeout(r, 500));
    // A transient poll failure must not abandon the switch; keep
    // polling until the deadline.
    try { data = await (await fetch('/measure')).json(); } catch {}
  }
  document.getElementById('info').textContent = JSON.stringify(data, null, 1);
  if (data.pending) return;
  document.getElementById('super').textContent = data.superNodes;
  refresh();
  document.getElementById('treemap').src = '/treemap.png?t=' + Date.now();
};
document.getElementById('treemap').onclick = async ev => {
  const r = ev.target.getBoundingClientRect();
  const x = (ev.clientX - r.left) / r.width, y = (ev.clientY - r.top) / r.height;
  const resp = await fetch('/select?x=' + x + '&y=' + y);
  document.getElementById('info').textContent = await resp.text();
  document.getElementById('linked').src = '/linked.png?x=' + x + '&y=' + y + '&t=' + Date.now();
};
async function loadPeaks() {
  const resp = await fetch('/peaks?alpha=' + document.getElementById('alpha').value);
  document.getElementById('info').textContent = await resp.text();
}
</script>
`))

func (s *server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	snap, ok := s.withSnapshot(w)
	if !ok {
		return
	}
	defer snap.Release()
	data := struct {
		Name         string
		Nodes, Edges int
		Super        int
		Measure      string
		Measures     []string
	}{snap.Key.Dataset, snap.Graph.NumVertices(), snap.Graph.NumEdges(),
		snap.Terrain.Tree.Len(), snap.Key.Measure, scalarfield.Measures()}
	if err := indexTmpl.Execute(w, data); err != nil {
		log.Printf("index: %v", err)
	}
}

// writeJSON answers v as indented JSON, or 500 when v holds a value
// JSON cannot carry (a ±Inf from a library field, say): Encode
// marshals in full before its one write, so nothing is sent yet.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		log.Printf("encoding response: %v", err)
		var unsupported *json.UnsupportedValueError
		if errors.As(err, &unsupported) {
			http.Error(w, fmt.Sprintf("encoding response: %v", err), http.StatusInternalServerError)
		}
	}
}

// floatParam reads a float query parameter, def when absent, malformed
// or not finite: handlers echo some parameters into JSON, which has no
// encoding for Inf or NaN.
func floatParam(r *http.Request, name string, def float64) float64 {
	if s := r.URL.Query().Get(name); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && !math.IsInf(v, 0) && !math.IsNaN(v) {
			return v
		}
	}
	return def
}

// intParam reads an integer query parameter, def when absent or
// malformed, clamped to [lo, hi]: image sizes come from the client and
// size the raster allocation.
func intParam(r *http.Request, name string, def, lo, hi int) int {
	v := def
	if s := r.URL.Query().Get(name); s != "" {
		if n, err := strconv.Atoi(s); err == nil {
			v = n
		}
	}
	return min(max(v, lo), hi)
}
