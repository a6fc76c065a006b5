// Dynamic fleet membership for cmd/serve: the wiring between the pure
// state machines (fleet.Manager for membership, shard.Ring for
// placement, query.PeerFetcher for hydration) and the world — probe
// loops that double as gossip, the join/gossip/view HTTP endpoints,
// ownership handoff when the ring changes, fleet-wide invalidation
// broadcast, and the graceful-drain sequence.
//
// The flow: every node probes every other member it knows of by
// GETting /api/v1/fleet/view and merging the response into its own
// manager — pull gossip riding the health-probe loop, so membership
// spreads at probe speed with zero extra connections. Probe outcomes
// feed both the per-peer circuit breaker (forwarding stops fast) and
// the manager's suspicion counter (eviction after the configured
// number of consecutive failures). Every adopted view change rebuilds
// the consistent-hash ring and diffs ownership: keys this node owned
// under the old ring but not the new one are pushed — encoded wire
// containers over PUT /api/v1/snapshot/{hash} — to their new owners,
// so a joiner serves its first owned queries from its predecessors'
// work and a drainer leaves nothing behind.
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/query"
	"repro/internal/resilience"
	"repro/internal/shard"
)

// fleetConfig configures dynamic membership (startFleet).
type fleetConfig struct {
	// self is this node's member record: ring ID plus the base URL
	// peers reach it at.
	self fleet.Member
	// seeds is the parsed -peers list. Self among them: founding
	// member. Self absent: joiner — the node starts alone and joins
	// through each seed in turn until one admits it.
	seeds []fleet.Member
	// probeOpts paces the per-peer gossip probes.
	probeOpts resilience.ProbeOptions
}

// fleetRuntime owns the I/O around a fleet.Manager for one server.
type fleetRuntime struct {
	s       *server
	manager *fleet.Manager

	probeOpts resilience.ProbeOptions

	// ctx bounds every background goroutine the runtime owns; cancel
	// fires in stop().
	ctx    context.Context
	cancel context.CancelFunc

	// applyMu serializes view application end to end. OnChange
	// callbacks may arrive concurrently and out of order; the epoch
	// guard under this mutex ensures the server's routing only ever
	// moves forward, and holding it across the swap keeps a stale
	// callback from installing an older ring over a newer one.
	applyMu      sync.Mutex
	applied      bool
	appliedEpoch uint64

	// probeMu guards the probe-loop registry (one loop per known peer).
	probeMu sync.Mutex
	probes  map[string]*peerProbe

	// wg tracks probe loops and invalidation broadcasts — everything
	// cancel() stops; handoffWG tracks ownership-handoff pushes, which
	// drain waits for *before* cancelling. bgMu/stopped gate every
	// wg.Add so a request that lands mid-drain (an invalidation
	// broadcast, say) cannot Add after stop's Wait began.
	bgMu      sync.Mutex
	stopped   bool
	wg        sync.WaitGroup
	handoffWG sync.WaitGroup
}

// spawn runs fn on a tracked goroutine unless the runtime has stopped.
func (rt *fleetRuntime) spawn(fn func()) {
	rt.bgMu.Lock()
	defer rt.bgMu.Unlock()
	if rt.stopped {
		return
	}
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		fn()
	}()
}

type peerProbe struct {
	url    string
	cancel context.CancelFunc
}

const (
	fleetViewPath   = "/api/v1/fleet/view"
	fleetJoinPath   = "/api/v1/fleet/join"
	fleetGossipPath = "/api/v1/fleet/gossip"
	invalidatePath  = "/api/v1/invalidate"
)

// startFleet switches the server to dynamic membership: a manager
// seeded from cfg, gossip probes of every known peer, and — for a
// joiner — a background join loop against the seeds. Call once,
// before serving traffic.
func (s *server) startFleet(cfg fleetConfig) error {
	rt := &fleetRuntime{
		s:         s,
		probeOpts: cfg.probeOpts,
		probes:    make(map[string]*peerProbe),
	}
	rt.ctx, rt.cancel = context.WithCancel(context.Background())
	mgr, err := fleet.NewManager(fleet.Config{
		Self:     cfg.self,
		Seeds:    cfg.seeds,
		OnChange: rt.applyView,
	})
	if err != nil {
		rt.cancel()
		return err
	}
	rt.manager = mgr
	s.fleet.Store(rt)
	s.peers.Self = cfg.self.ID
	rt.applyView(mgr.View())
	joiner := true
	for _, seed := range cfg.seeds {
		if seed.ID == cfg.self.ID {
			joiner = false
		}
	}
	if joiner {
		rt.spawn(func() { rt.joinLoop(cfg.seeds) })
	}
	return nil
}

// fleetRuntime returns the membership runtime, nil when the node is
// unsharded.
func (s *server) fleetRuntime() *fleetRuntime {
	return s.fleet.Load()
}

// ringOwnerID is the PeerFetcher Owner hook: the ring owner's member ID
// for a key ("" when unsharded).
func (s *server) ringOwnerID(k query.Key) string {
	return s.routing.Load().owner(k)
}

// peerFetchCandidates is the PeerFetcher Peers hook: every current
// member's base URL (Leaving included — a drainer still answers
// fetches while its keys move). Nil when the node is unsharded, which
// disables peer backfill.
func (s *server) peerFetchCandidates() map[string]string {
	rt := s.fleetRuntime()
	if rt == nil {
		return nil
	}
	return rt.manager.View().URLs()
}

// applyView is the manager's OnChange hook (also called once at
// startup) and the only place a ring is installed: swap in the new
// routing value, reconcile probe loops, and hand off snapshots whose
// ownership moved away from us.
func (rt *fleetRuntime) applyView(v fleet.View) {
	rt.applyMu.Lock()
	defer rt.applyMu.Unlock()
	if rt.applied && v.Epoch <= rt.appliedEpoch {
		return // stale callback; a newer view is already installed
	}
	rt.applied, rt.appliedEpoch = true, v.Epoch

	members := v.RingMembers()
	var ring *shard.Ring
	if len(members) > 0 {
		ring = shard.New(members, 0)
	}
	urls := v.URLs()
	old := rt.s.routing.Swap(&routing{self: rt.manager.Self().ID, ring: ring, urls: urls})
	log.Printf("fleet: applied view %v", v)

	rt.reconcileProbes(v)
	if old != nil {
		rt.scheduleHandoff(old.ring, ring, urls)
	}
}

// reconcileProbes aligns the probe-loop registry with a view: one
// gossip probe loop per non-self member, loops for departed members
// cancelled. Each loop GETs the peer's /api/v1/fleet/view, merges the
// response (gossip), and feeds the outcome to the peer's breaker and
// the suspicion counter.
func (rt *fleetRuntime) reconcileProbes(v fleet.View) {
	rt.probeMu.Lock()
	defer rt.probeMu.Unlock()
	if rt.ctx.Err() != nil {
		return
	}
	self := rt.manager.Self().ID
	want := make(map[string]string, len(v.Members))
	for _, m := range v.Members {
		if m.ID != self {
			want[m.ID] = m.URL
		}
	}
	for id, p := range rt.probes {
		if url, ok := want[id]; !ok || url != p.url {
			p.cancel()
			delete(rt.probes, id)
		}
	}
	for id, base := range want {
		if _, running := rt.probes[id]; running {
			continue
		}
		ctx, cancel := context.WithCancel(rt.ctx)
		rt.probes[id] = &peerProbe{url: base, cancel: cancel}
		id, base := id, base
		rt.spawn(func() {
			breaker := rt.s.breakers.For(base)
			resilience.ProbeLoop(ctx, breaker, func(ctx context.Context) error {
				err := rt.mergeView(ctx, http.MethodGet, base+fleetViewPath, nil)
				rt.manager.ObserveProbe(id, err)
				return err
			}, rt.probeOpts)
		})
	}
}

// octetStream is the header of every wire-format request body.
var octetStream = http.Header{"Content-Type": {"application/octet-stream"}}

// shortCall is a peer call bounded like a gossip probe: each attempt
// gets probeTimeout, and the answer is capped at one wire view.
func (s *server) shortCall(method, target string, body []byte) resilience.Call {
	call := resilience.Call{Method: method, URL: target, Body: body, Timeout: s.probeTimeout, MaxBytes: fleet.MaxViewBytes}
	if body != nil {
		call.Header = octetStream
	}
	return call
}

// mergeView is one membership call whose answer is a wire-format view
// (a gossip probe or a join): send it once and merge the view. Any
// failure — transport, status, decode — is returned.
func (rt *fleetRuntime) mergeView(ctx context.Context, method, target string, body []byte) error {
	resp, data, err := resilience.Exchange(ctx, rt.s.client, rt.s.shortCall(method, target, body))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: %s %s: status %d", method, target, resp.StatusCode)
	}
	v, err := fleet.DecodeView(data)
	if err != nil {
		return err
	}
	rt.manager.Merge(v)
	return nil
}

// joinLoop runs until some seed admits us — we POST our member record
// to its join endpoint and merge the admitted view it returns — or the
// runtime stops. Seeds are retried in order with a backoff: at boot
// the seeds themselves may still be starting.
func (rt *fleetRuntime) joinLoop(seeds []fleet.Member) {
	self := rt.manager.Self()
	body := fleet.EncodeView(fleet.View{Members: []fleet.Member{self}})
	backoff := rt.probeOpts.Interval
	if backoff <= 0 {
		backoff = time.Second
	}
	for attempt := 0; ; attempt++ {
		for _, seed := range seeds {
			if seed.ID == self.ID {
				continue
			}
			if err := rt.mergeView(rt.ctx, http.MethodPost, seed.URL+fleetJoinPath, body); err != nil {
				log.Printf("fleet: join via %s: %v", seed.ID, err)
				continue
			}
			log.Printf("fleet: joined via seed %s", seed.ID)
			return
		}
		select {
		case <-rt.ctx.Done():
			return
		case <-time.After(backoff):
		}
	}
}

// scheduleHandoff diffs ownership between two rings and pushes every
// snapshot this node owned under the old ring but no longer owns to
// its new owner. The pushes run in one background goroutine (bounded,
// ordered) tracked by handoffWG so a drain can wait for them; a failed
// push is logged and dropped — the new owner's hydration fetch covers
// the key on first demand.
func (rt *fleetRuntime) scheduleHandoff(oldRing, newRing *shard.Ring, urls map[string]string) {
	if oldRing == nil || newRing == nil {
		return
	}
	self := rt.manager.Self().ID
	type move struct {
		key query.Key
		url string
	}
	var moves []move
	for _, key := range rt.s.store.Keys() {
		ss := key.ShardString()
		if oldRing.Owner(ss) != self || newRing.Owner(ss) == self {
			continue
		}
		base, ok := urls[newRing.Owner(ss)]
		if !ok {
			continue
		}
		moves = append(moves, move{key: key, url: base})
	}
	if len(moves) == 0 {
		return
	}
	log.Printf("fleet: handing off %d snapshot(s) to new owners", len(moves))
	rt.bgMu.Lock()
	defer rt.bgMu.Unlock()
	if rt.stopped {
		return
	}
	rt.handoffWG.Add(1)
	go func() {
		defer rt.handoffWG.Done()
		for _, m := range moves {
			rt.pushSnapshot(m.key, m.url)
		}
	}()
}

// pushSnapshot PUTs one locally held snapshot to its new owner:
// breaker-gated, retried, best-effort. A 409 means the receiver's
// generation diverged or raced an invalidation — its own analysis
// path will produce the right bytes, so we stop.
func (rt *fleetRuntime) pushSnapshot(key query.Key, base string) {
	snap, ok := rt.s.store.Get(key)
	if !ok {
		return
	}
	var buf bytes.Buffer
	err := query.EncodeSnapshot(&buf, snap)
	snap.Release()
	if err != nil {
		log.Printf("fleet: encoding snapshot %v for handoff: %v", key, err)
		return
	}
	call := resilience.Call{Method: http.MethodPut, URL: query.SnapshotFetchURL(base, key),
		Body: buf.Bytes(), Header: octetStream, MaxBytes: query.MaxPeerBytes}
	err = resilience.Do(rt.ctx, resilience.RetryConfig{Attempts: 3}, rt.s.breakers.For(base), func() error {
		resp, _, err := resilience.Exchange(rt.ctx, rt.s.client, call)
		if err != nil {
			return err
		}
		if resp.StatusCode >= 500 {
			return fmt.Errorf("handoff status %d", resp.StatusCode)
		}
		// Any answer below 500 is a live peer: adopted (204), diverged
		// (409), or confused (4xx) — none retryable.
		if resp.StatusCode != http.StatusNoContent {
			log.Printf("fleet: handoff of %v to %s answered %d", key, base, resp.StatusCode)
		}
		return nil
	})
	if err != nil {
		log.Printf("fleet: handoff of %v to %s failed: %v (new owner will fetch on demand)", key, base, err)
	}
}

// broadcastInvalidation is the engine's OnInvalidate hook: carry the
// dataset's new absolute generation to every peer. Receivers adopt
// (AdoptGeneration — idempotent, no re-broadcast), so one origin bump
// converges the fleet without storms. Best-effort: a peer that misses
// the broadcast converges on the next one, and the snapshot Seq guard
// keeps it from serving stale bytes as current meanwhile.
func (s *server) broadcastInvalidation(dataset string, gen uint64) {
	rt := s.fleetRuntime()
	if rt == nil {
		return
	}
	for _, peer := range rt.manager.Peers() {
		peer := peer
		rt.spawn(func() {
			call := s.shortCall(http.MethodPost, peer.URL+invalidatePath+
				"?dataset="+url.QueryEscape(dataset)+
				"&gen="+strconv.FormatUint(gen, 10), nil)
			err := resilience.Do(rt.ctx, resilience.RetryConfig{Attempts: 3}, s.breakers.For(peer.URL), func() error {
				resp, _, err := resilience.Exchange(rt.ctx, s.client, call)
				if err != nil {
					return err
				}
				if resp.StatusCode != http.StatusOK {
					return fmt.Errorf("invalidate status %d", resp.StatusCode)
				}
				return nil
			})
			if err != nil {
				log.Printf("fleet: broadcasting invalidation of %s (gen %d) to %s: %v", dataset, gen, peer.ID, err)
			}
		})
	}
}

// drain runs the graceful-exit sequence: flip readiness (done by the
// caller storing draining before Shutdown — we do it here too, first,
// so tests can call drain directly), announce departure, wait for
// ownership handoff, then stop all fleet background work. In-flight
// HTTP requests are the caller's business (http.Server.Shutdown).
func (s *server) drain(ctx context.Context) {
	s.draining.Store(true)
	rt := s.fleetRuntime()
	if rt == nil {
		return
	}
	// Leave marks self Leaving (epoch bump): the OnChange callback
	// rebuilds our ring without self and schedules the handoff of every
	// key we owned.
	v := rt.manager.Leave()
	rt.broadcastView(ctx, v)
	done := make(chan struct{})
	go func() {
		rt.handoffWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		log.Printf("fleet: drain deadline hit before handoff finished; new owners will fetch on demand")
	}
	rt.stop()
}

// broadcastView pushes a view to every other member's gossip endpoint
// — the drain announcement, so peers stop routing to us within one
// round trip instead of one probe interval. Best-effort.
func (rt *fleetRuntime) broadcastView(ctx context.Context, v fleet.View) {
	self := rt.manager.Self().ID
	body := fleet.EncodeView(v)
	for _, m := range v.Members {
		if m.ID == self {
			continue
		}
		if _, _, err := resilience.Exchange(ctx, rt.s.client, rt.s.shortCall(http.MethodPost, m.URL+fleetGossipPath, body)); err != nil {
			log.Printf("fleet: announcing departure to %s: %v", m.ID, err)
		}
	}
}

// stop cancels every fleet goroutine and waits for them to exit —
// the goroutine-leak half of a clean drain.
func (rt *fleetRuntime) stop() {
	rt.bgMu.Lock()
	rt.stopped = true
	rt.bgMu.Unlock()
	rt.cancel()
	rt.probeMu.Lock()
	for id, p := range rt.probes {
		p.cancel()
		delete(rt.probes, id)
	}
	rt.probeMu.Unlock()
	rt.wg.Wait()
}

// handleFleetView serves this node's membership view in the wire
// format — the gossip pull endpoint every probe loop hits. It answers
// for as long as the process lives (drain included: a Leaving member
// gossiping its own departure is the point).
func (s *server) handleFleetView(w http.ResponseWriter, r *http.Request) {
	rt := s.fleetRuntime()
	if rt == nil {
		http.Error(w, "not a dynamic fleet member", http.StatusNotFound)
		return
	}
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(fleet.EncodeView(rt.manager.View()))
}

// handleFleetJoin admits a joiner: the body is a wire-format view
// whose first member is the candidate; the response is the admitted
// view (epoch bumped past every founder's), which the joiner merges.
func (s *server) handleFleetJoin(w http.ResponseWriter, r *http.Request) {
	rt := s.fleetRuntime()
	if rt == nil {
		http.Error(w, "not a dynamic fleet member", http.StatusNotFound)
		return
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	v, err := readWireView(w, r)
	if err != nil {
		return
	}
	if len(v.Members) == 0 {
		http.Error(w, "join body names no member", http.StatusBadRequest)
		return
	}
	admitted, err := rt.manager.HandleJoin(v.Members[0])
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(fleet.EncodeView(admitted))
}

// handleFleetGossip merges a pushed view (a drain announcement, or any
// node that wants to spread news faster than the probe interval) and
// answers with the local view.
func (s *server) handleFleetGossip(w http.ResponseWriter, r *http.Request) {
	rt := s.fleetRuntime()
	if rt == nil {
		http.Error(w, "not a dynamic fleet member", http.StatusNotFound)
		return
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	v, err := readWireView(w, r)
	if err != nil {
		return
	}
	rt.manager.Merge(v)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(fleet.EncodeView(rt.manager.View()))
}

// readWireView reads and decodes a size-capped wire-format view from a
// request body, writing the HTTP error itself on failure.
func readWireView(w http.ResponseWriter, r *http.Request) (fleet.View, error) {
	data, err := io.ReadAll(io.LimitReader(r.Body, fleet.MaxViewBytes+1))
	if err != nil {
		http.Error(w, fmt.Sprintf("reading view: %v", err), http.StatusBadRequest)
		return fleet.View{}, err
	}
	v, err := fleet.DecodeView(data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return fleet.View{}, err
	}
	return v, nil
}
