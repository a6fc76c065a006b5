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

// PeerFetcher backfills local misses from fleet peers. Its Fetch is
// the engine's Hydrate hook (Options.Hydrate): the first step of a
// snapshot flight, before admission and analysis, asks the key's ring
// owner (then any other live peer) for its encoded snapshot — the
// exact wire container the DiskStore persists — and verifies it. The
// flight then inserts it like an analysis, through the engine's
// generation guard. One owner's analysis thereby hydrates every node
// that is asked for the key, and a node that just joined the fleet
// serves its first owned queries from its predecessor's work instead
// of re-analyzing. Fetches run inside the engine's singleflight, so
// concurrent misses on one key fetch once.
//
// Verification is the whole trust story: the response decodes through
// the same untrusted-input path as a disk file (counts validated
// before allocation, arena scan on the graph section), the decoded key
// must match the requested one, and the snapshot's Seq must equal what
// the flight's generation demands — a peer whose invalidation history
// diverged cannot smuggle stale data in. Fetches are breaker-gated per
// peer, retried with the shared retry policy, and size-capped; a clean
// 404 or a stale answer moves on to the next candidate.
//
// All hook fields must be assigned before the fetcher sees traffic.
type PeerFetcher struct {
	// Self is this node's member ID; it is never a fetch candidate.
	Self string
	// Owner returns the ring owner of a key ("" when there is no ring
	// or no owner); it is asked first.
	Owner func(Key) string
	// Peers returns the current fetch candidates: member ID -> base
	// URL, self included or not (self is skipped either way). Nil or
	// empty disables peer backfill.
	Peers func() map[string]string
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
	// OnFetch, when set, fires after a successful fetch with the key
	// and the peer ID that supplied it (test and metrics hook).
	OnFetch func(key Key, peer string)
}

// candidates orders the peers to ask: the ring owner first (it is the
// node whose analysis duty covers the key), then every other peer in
// ID order. Deterministic order keeps fetch behavior reproducible
// under test; asking non-owners at all is what covers churn — after an
// eviction the keys' previous owner is often the only node holding
// the analysis, and it may no longer be the ring owner.
func (p *PeerFetcher) candidates(key Key, peers map[string]string) []string {
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

// Fetch tries each candidate until one yields a snapshot of key whose
// Seq is what generation gen demands. It inserts nothing: the engine's
// flight stores the result through its generation guard.
func (p *PeerFetcher) Fetch(key Key, gen uint64) (*Snapshot, bool) {
	var peers map[string]string
	if p.Peers != nil {
		peers = p.Peers()
	}
	if len(peers) == 0 {
		return nil, false
	}
	for _, id := range p.candidates(key, peers) {
		snap, err := p.fetchFrom(peers[id], key, gen)
		if err != nil {
			if !errors.Is(err, errPeerSnapshotMiss) {
				log.Printf("query: fetching snapshot %v from peer %s: %v", key, id, err)
			}
			continue
		}
		if p.OnFetch != nil {
			p.OnFetch(key, id)
		}
		return snap, true
	}
	return nil, false
}

// fetchFrom performs the breaker-gated, retried fetch against one
// peer. A 404 returns errPeerSnapshotMiss and a snapshot of another
// generation ErrSnapshotStale, both without retrying and both feeding
// the breaker success: the peer answered, it just lacks this
// generation of the key (a healthy peer that lags one invalidation
// broadcast must not open the breaker it shares with forwarding).
// Transport failures, bad statuses, oversized bodies, and snapshots
// that fail decoding or identity checks count as peer failures.
func (p *PeerFetcher) fetchFrom(base string, key Key, gen uint64) (*Snapshot, error) {
	var breaker *resilience.Breaker
	if p.Breakers != nil {
		breaker = p.Breakers.For(base)
	}
	call := resilience.Call{Method: http.MethodGet, URL: SnapshotFetchURL(base, key), MaxBytes: MaxPeerBytes}
	var snap *Snapshot
	answer := errPeerSnapshotMiss
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
		if errors.Is(err, ErrSnapshotStale) {
			answer = err
			return nil
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if snap == nil {
		return nil, answer
	}
	return snap, nil
}

// decodeRemoteSnapshot decodes and verifies a snapshot received from a
// peer (fetch response or handoff push): the standard untrusted decode
// path, then identity (the decoded key must be the requested one) and
// currency (Seq must match what gen demands; ErrSnapshotStale
// otherwise).
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
	return snap, nil
}
