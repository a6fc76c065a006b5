package query

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/resilience"
)

// snapshotPathPrefix is the fleet snapshot-exchange route.
const snapshotPathPrefix = "/api/v1/snapshot/"

// ErrSnapshotStale marks a snapshot received from a peer whose Seq
// does not match what the receiver's current generation demands: the
// transfer raced an invalidation, or the sender's invalidation history
// diverged. Receivers reject it — adopting would serve another
// generation's data under this one's identity.
var ErrSnapshotStale = errors.New("query: snapshot seq does not match current generation")

// errPeerSnapshotMiss marks a clean 404: the peer is healthy but does
// not hold the snapshot. Never retried.
var errPeerSnapshotMiss = errors.New("query: peer does not hold the snapshot")

// SnapshotPath returns the snapshot-exchange URL path for a key: the
// same 64-bit shard-string hash the DiskStore names files with, so the
// path a node fetches is derivable from the key alone on any fleet
// member. The serving side re-derives it from the query parameters and
// rejects mismatches, so a hash collision (or a confused client) reads
// as a 400, never as the wrong analysis.
func SnapshotPath(key Key) string {
	return snapshotPathPrefix + strings.TrimSuffix(SnapshotFileName(key), snapExt)
}

// SnapshotFetchURL renders the full snapshot-exchange URL for key
// against a peer base URL — the target of both a hydration GET and a
// handoff PUT (cmd/serve's ownership handoff pushes through it).
func SnapshotFetchURL(base string, key Key) string {
	q := url.Values{}
	q.Set("dataset", key.Dataset)
	q.Set("measure", key.Measure)
	if key.Color != "" {
		q.Set("color", key.Color)
	}
	if key.Bins != 0 {
		q.Set("bins", strconv.Itoa(key.Bins))
	}
	return base + SnapshotPath(key) + "?" + q.Encode()
}

// PeerStore is a SnapshotStore that backfills local misses from fleet
// peers: before the engine's singleflight falls through to analysis,
// a miss asks the key's ring owner (then any other live peer) for its
// encoded snapshot — the exact wire container the DiskStore persists —
// verifies it, inserts it into the inner store, and serves it. One
// owner's analysis thereby hydrates every node that is asked for the
// key, and a node that just joined the fleet serves its first owned
// queries from its predecessor's work instead of re-analyzing.
//
// Verification is the whole trust story: the response decodes through
// the same untrusted-input path as a disk file (counts validated
// before allocation, arena scan on the graph section), the decoded key
// must match the requested one, and the snapshot's Seq must equal what
// this node's current invalidation generation demands — a peer whose
// invalidation history diverged cannot smuggle stale data in. Fetches
// are breaker-gated per peer, retried with the shared retry policy,
// and size-capped; a clean 404 moves on to the next candidate.
//
// PeerStore sits between the engine's generation guard and the real
// store: Engine -> genGuardedStore -> PeerStore -> DiskStore/memory.
// All hook fields must be assigned before the store sees traffic.
type PeerStore struct {
	// Inner is the local tier beneath the peer backfill.
	Inner SnapshotStore
	// Self is this node's member ID; it is never a fetch candidate.
	Self string
	// Owner returns the ring owner of a key ("" when there is no ring
	// or no owner); it is asked first.
	Owner func(Key) string
	// Peers returns the current fetch candidates: member ID -> base
	// URL, self included or not (self is skipped either way). Nil or
	// empty disables peer backfill.
	Peers func() map[string]string
	// Generation returns a dataset's local invalidation generation;
	// nil means generation zero.
	Generation func(dataset string) uint64
	// Client performs fetches; nil means http.DefaultClient. Its
	// Timeout bounds each attempt.
	Client *http.Client
	// Breakers, when set, gates fetches per peer URL: an open breaker
	// skips the candidate without dialing, and every fetch outcome
	// feeds it. Sharing cmd/serve's probe-fed set means a dead peer is
	// usually known dead before any fetch pays for the discovery.
	Breakers *resilience.BreakerSet
	// Retry tunes per-candidate fetch retries (zero value: 2 attempts,
	// 50ms jittered base backoff).
	Retry resilience.RetryConfig
	// OnFetch, when set, fires after a successful hydration with the
	// key and the peer ID that supplied it (test and metrics hook).
	OnFetch func(key Key, peer string)

	mu sync.Mutex
	// fetching coalesces concurrent misses on one key: without it,
	// every request racing ahead of the engine's singleflight (Get
	// runs on the cache-probe path, before flights coalesce) would
	// fetch redundantly.
	fetching map[Key]*peerFetch
}

type peerFetch struct {
	done chan struct{}
	snap *Snapshot
	ok   bool
}

// Get probes the inner store, then the fleet. Every returned snapshot
// is retained on the caller's behalf (peer-fetched snapshots are
// heap-backed, so their Retain/Release are no-ops).
func (p *PeerStore) Get(key Key) (*Snapshot, bool) {
	if snap, ok := p.Inner.Get(key); ok {
		return snap, true
	}
	p.mu.Lock()
	if f, inflight := p.fetching[key]; inflight {
		p.mu.Unlock()
		<-f.done
		return f.snap, f.ok
	}
	f := &peerFetch{done: make(chan struct{})}
	if p.fetching == nil {
		p.fetching = make(map[Key]*peerFetch)
	}
	p.fetching[key] = f
	p.mu.Unlock()

	f.snap, f.ok = p.fetch(key)
	p.mu.Lock()
	delete(p.fetching, key)
	p.mu.Unlock()
	close(f.done)
	return f.snap, f.ok
}

// LocalGet probes only the inner store — the serving side of the
// snapshot-exchange endpoint uses it, so answering a peer's fetch can
// never recurse into fetching.
func (p *PeerStore) LocalGet(key Key) (*Snapshot, bool) { return p.Inner.Get(key) }

// Add, Evict, Contains, Len, and Keys delegate to the inner store.
func (p *PeerStore) Add(key Key, s *Snapshot)  { p.Inner.Add(key, s) }
func (p *PeerStore) Evict(pred func(Key) bool) { p.Inner.Evict(pred) }
func (p *PeerStore) Contains(key Key) bool     { return p.Inner.Contains(key) }
func (p *PeerStore) Len() int                  { return p.Inner.Len() }
func (p *PeerStore) Keys() []Key               { return p.Inner.Keys() }

// candidates orders the peers to ask: the ring owner first (it is the
// node whose analysis duty covers the key), then every other peer in
// ID order. Deterministic order keeps fetch behavior reproducible
// under test; asking non-owners at all is what covers churn — after an
// eviction the keys' previous owner is often the only node holding
// the analysis, and it may no longer be the ring owner.
func (p *PeerStore) candidates(key Key) []string {
	var peers map[string]string
	if p.Peers != nil {
		peers = p.Peers()
	}
	if len(peers) == 0 {
		return nil
	}
	owner := ""
	if p.Owner != nil {
		owner = p.Owner(key)
	}
	ids := make([]string, 0, len(peers))
	for id := range peers {
		if id == p.Self || id == owner {
			continue
		}
		ids = append(ids, id)
	}
	sort.Strings(ids)
	if owner != "" && owner != p.Self {
		if _, ok := peers[owner]; ok {
			ids = append([]string{owner}, ids...)
		}
	}
	return ids
}

// fetch tries each candidate until one yields a verified snapshot,
// inserting it into the inner store on success.
func (p *PeerStore) fetch(key Key) (*Snapshot, bool) {
	candidates := p.candidates(key)
	if len(candidates) == 0 {
		return nil, false
	}
	peers := p.Peers()
	gen := uint64(0)
	if p.Generation != nil {
		gen = p.Generation(key.Dataset)
	}
	for _, id := range candidates {
		base, ok := peers[id]
		if !ok {
			continue
		}
		snap, err := p.fetchFrom(base, key, gen)
		if err != nil {
			if !errors.Is(err, errPeerSnapshotMiss) {
				log.Printf("query: fetching snapshot %v from peer %s: %v", key, id, err)
			}
			continue
		}
		p.Inner.Add(key, snap)
		if p.OnFetch != nil {
			p.OnFetch(key, id)
		}
		return snap, true
	}
	return nil, false
}

// fetchFrom performs the breaker-gated, retried fetch against one
// peer. A 404 returns errPeerSnapshotMiss without retrying (and feeds
// the breaker success — the peer answered, it just lacks the key);
// transport failures, bad statuses, oversized bodies, and snapshots
// that fail verification count as peer failures.
func (p *PeerStore) fetchFrom(base string, key Key, gen uint64) (*Snapshot, error) {
	var breaker *resilience.Breaker
	if p.Breakers != nil {
		breaker = p.Breakers.For(base)
	}
	call := resilience.Call{Method: http.MethodGet, URL: SnapshotFetchURL(base, key), MaxBytes: MaxPeerBytes}
	var snap *Snapshot
	err := resilience.Do(context.Background(), p.Retry, breaker, func() error {
		resp, data, err := resilience.Exchange(context.Background(), p.Client, call)
		switch {
		case err != nil:
			return err
		case resp.StatusCode == http.StatusNotFound:
			return nil
		case resp.StatusCode != http.StatusOK:
			return fmt.Errorf("peer snapshot fetch: status %d", resp.StatusCode)
		}
		snap, err = decodeRemoteSnapshot(data, key, gen)
		return err
	})
	if err != nil {
		return nil, err
	}
	if snap == nil {
		return nil, errPeerSnapshotMiss
	}
	return snap, nil
}

// decodeRemoteSnapshot decodes and verifies a snapshot received from a
// peer (fetch response or handoff push): the standard untrusted decode
// path, then identity (the decoded key must be the requested one) and
// currency (Seq must match what gen demands; ErrSnapshotStale
// otherwise). On success the snapshot is stamped with gen so the
// engine's insert guard treats it like a local analysis under that
// generation.
func decodeRemoteSnapshot(data []byte, key Key, gen uint64) (*Snapshot, error) {
	snap, err := DecodeSnapshot(data)
	if err != nil {
		return nil, err
	}
	if snap.Key != key {
		return nil, fmt.Errorf("query: peer snapshot decodes to key %v, want %v", snap.Key, key)
	}
	if want := snapshotSeq(key, gen); snap.Seq != want {
		return nil, fmt.Errorf("%w: seq %d, generation %d demands %d", ErrSnapshotStale, snap.Seq, gen, want)
	}
	snap.gen = gen
	return snap, nil
}
