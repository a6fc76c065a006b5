package query

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"time"

	scalarfield "repro"
	"repro/internal/resilience"
)

// MaxOps bounds the operations accepted in one batch request.
const MaxOps = 256

// maxRequestBytes bounds the request body.
const maxRequestBytes = 1 << 20

// DefaultMaxRelayBytes caps a relayed peer response when the Handler
// does not set its own bound: large enough for any real batch answer
// (spectra over big stand-ins run to a few MB), small enough that a
// corrupt or hostile peer cannot balloon the relay.
const DefaultMaxRelayBytes = 64 << 20

// DefaultRetryAfter is the Retry-After hint on shed (503) responses.
const DefaultRetryAfter = time.Second

// Request is the body of POST /api/v1/query: an optional snapshot key
// override plus the operation batch. Key fields left unset fall back
// to the handler's defaults (the viewer's current selection in
// cmd/serve). Color and Bins are pointers so an explicit empty color
// or zero bins overrides a non-empty default.
type Request struct {
	Dataset string  `json:"dataset,omitempty"`
	Measure string  `json:"measure,omitempty"`
	Color   *string `json:"color,omitempty"`
	Bins    *int    `json:"bins,omitempty"`
	Ops     []Op    `json:"ops"`
}

// Response carries the identity of the snapshot that answered —
// clients use Seq to correlate batches — and one result per operation,
// in request order. Degraded, when non-empty, marks an explicitly
// degraded answer: "stale" means the fresh analysis failed or was shed
// and the results describe the last snapshot this node analyzed for
// the key (possibly predating an invalidation). Clients that cannot
// tolerate staleness must retry instead of consuming a degraded
// response.
type Response struct {
	Snapshot Info       `json:"snapshot"`
	Degraded string     `json:"degraded,omitempty"`
	Results  []OpResult `json:"results"`
}

// DegradedStale is the Response.Degraded marker for stale-if-error
// answers.
const DegradedStale = "stale"

// Handler serves the batched query API over an Engine. Safe for
// concurrent use.
type Handler struct {
	Engine *Engine
	// Defaults supplies the key fields a request leaves unset. Nil
	// means requests must name at least dataset and measure.
	Defaults func() Key
	// Route, when set, is the shard router: given the fully resolved
	// key it returns the base URL of the peer that owns it, or ok=false
	// when this node owns the key (or no routing applies). Owned keys
	// are served locally; non-owned keys are forwarded to the owner
	// over the same batch API — with the key fully pinned in the
	// forwarded body, so the peer's own Defaults cannot reinterpret it
	// — and the owner's response is relayed byte for byte (buffered and
	// size-capped first, so a peer that dies mid-body costs a retry or
	// a local fallback, never a truncated relay). Forwarded requests
	// carry ForwardedHeader; a request that already carries it is
	// always served locally, so a misconfigured ring (two nodes
	// disagreeing about ownership) degrades to an extra hop, never a
	// forwarding loop. If the owner is unreachable — or its breaker is
	// open — the request falls back to local service: availability over
	// single-analysis strictness.
	Route func(Key) (peerURL string, ok bool)
	// Client performs forwarded requests; nil means
	// http.DefaultClient. Analyses can take minutes on large datasets,
	// so any timeout should be generous — cmd/serve's -forward-timeout
	// flag sets it.
	Client *http.Client
	// Breakers, when set, gates forwarding per peer URL: a request
	// whose owner's breaker is open skips the forward entirely (no
	// dial, no timeout stall) and serves locally, and every forward
	// outcome feeds the breaker. The same set is fed by cmd/serve's
	// membership-gossip probes, so a dead peer is usually discovered
	// before any request pays for the discovery.
	Breakers *resilience.BreakerSet
	// Retry tunes the bounded, jittered-backoff retry of failed
	// forward attempts (safe: the batch API is idempotent and nothing
	// has been relayed when an attempt fails). The zero value means 2
	// attempts, 50ms base backoff.
	Retry resilience.RetryConfig
	// MaxRelayBytes caps a buffered peer response; <= 0 means
	// DefaultMaxRelayBytes. A peer answer over the cap counts as a
	// failed attempt (the local fallback still answers correctly).
	MaxRelayBytes int64
	// RetryAfter is the Retry-After hint written on 503 responses;
	// <= 0 means DefaultRetryAfter.
	RetryAfter time.Duration
	// AllowStale enables stale-if-error serving: when the fresh path
	// fails or is shed and the engine still holds a previously
	// analyzed snapshot for the key, answer from it with Degraded:
	// "stale" instead of erroring. Client mistakes (400s) never serve
	// stale.
	AllowStale bool
	// ViewEpoch, when set, reports this node's membership-view epoch.
	// Forwarded requests are stamped with the sender's epoch
	// (ViewEpochHeader) and checked on receipt: a mismatch means the
	// two nodes routed under different rings — the moment two nodes
	// could disagree about a key's owner. The request is still served
	// locally (ForwardedHeader already guarantees at most one hop, so
	// disagreement degrades to an extra analysis, never a loop or a
	// wrong answer), but the divergence is surfaced through
	// OnEpochMismatch instead of passing silently.
	ViewEpoch func() uint64
	// OnEpochMismatch, when set, fires once per forwarded request that
	// arrives under a different view epoch than the receiver's, with
	// both epochs (metrics and test hook).
	OnEpochMismatch func(remote, local uint64)
}

// ForwardedHeader marks a request that already crossed one shard hop.
const ForwardedHeader = "X-Scalarfield-Forwarded"

// ViewEpochHeader carries the forwarding node's membership-view epoch
// so the receiver can detect ring disagreement (see Handler.ViewEpoch).
const ViewEpochHeader = "X-Scalarfield-View-Epoch"

// ServeHTTP answers one batch: resolve the snapshot key, get-or-build
// the snapshot (coalesced with every concurrent request for the same
// key, bounded by the incoming request's context), and answer all
// operations from that one snapshot.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req Request
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return
	}
	if len(req.Ops) == 0 {
		http.Error(w, "empty ops batch", http.StatusBadRequest)
		return
	}
	if len(req.Ops) > MaxOps {
		http.Error(w, fmt.Sprintf("%d ops in one batch (max %d)", len(req.Ops), MaxOps), http.StatusBadRequest)
		return
	}

	var key Key
	if h.Defaults != nil {
		key = h.Defaults()
	}
	if req.Dataset != "" {
		key.Dataset = req.Dataset
	}
	if req.Measure != "" {
		key.Measure = req.Measure
	}
	if req.Color != nil {
		key.Color = *req.Color
	} else if key.Color != "" {
		// The color came from the defaults, not the request. Like the
		// viewer's sticky color preference, it carries over only while
		// it shares the requested measure's basis — a request that
		// just switches kcore→ktruss must not fail on the viewer's
		// vertex-based coloring. An explicit req.Color still fails
		// loudly above: that mismatch is the client's own.
		mInfo, mok := scalarfield.LookupMeasure(key.Measure)
		cInfo, cok := scalarfield.LookupMeasure(key.Color)
		if !mok || !cok || mInfo.Edge != cInfo.Edge {
			key.Color = ""
		}
	}
	if req.Bins != nil {
		key.Bins = *req.Bins
	}

	if h.ViewEpoch != nil && r.Header.Get(ForwardedHeader) != "" {
		if remoteStr := r.Header.Get(ViewEpochHeader); remoteStr != "" {
			if remote, perr := strconv.ParseUint(remoteStr, 10, 64); perr == nil {
				if local := h.ViewEpoch(); remote != local {
					log.Printf("query: forwarded request for %v crossed view epochs (sender %d, local %d); serving locally", key, remote, local)
					if h.OnEpochMismatch != nil {
						h.OnEpochMismatch(remote, local)
					}
				}
			}
		}
	}

	if h.Route != nil && r.Header.Get(ForwardedHeader) == "" {
		if peer, ok := h.Route(key); ok && peer != "" {
			if h.forward(w, r, peer, key, req.Ops) {
				return
			}
			// Forwarding failed (owner down / unreachable / breaker
			// open): serve locally so the fleet degrades to extra
			// analyses, not errors.
		}
	}

	snap, degraded, err := h.resolveSnapshot(r.Context(), key)
	if err != nil {
		h.writeSnapshotError(w, err)
		return
	}
	// The request's reference on the snapshot (a disk store in mmap
	// mode counts holders of the graph mapping; heap snapshots no-op).
	defer snap.Release()
	resp := Response{Snapshot: snap.Info(), Degraded: degraded, Results: h.Engine.Resolve(snap, req.Ops)}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		log.Printf("query: encoding response: %v", err)
	}
}

// resolveSnapshot gets-or-builds the key's snapshot under ctx. On a
// non-client failure with AllowStale set, it falls back to the last
// snapshot this node analyzed for the key, marked DegradedStale.
func (h *Handler) resolveSnapshot(ctx context.Context, key Key) (snap *Snapshot, degraded string, err error) {
	snap, err = h.Engine.SnapshotCtx(ctx, key)
	if err == nil {
		return snap, "", nil
	}
	var ce *ClientError
	if h.AllowStale && !errors.As(err, &ce) {
		if stale, ok := h.Engine.StaleSnapshot(key); ok {
			log.Printf("query: serving stale snapshot for %v: fresh path failed: %v", key, err)
			return stale, DegradedStale, nil
		}
	}
	return nil, "", err
}

// writeSnapshotError maps a get-or-build failure to a status: client
// mistakes are 400s; overload sheds and context expiry are 503s with
// a Retry-After hint (the condition is transient by construction);
// genuine pipeline failures stay 500s.
func (h *Handler) writeSnapshotError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var ce *ClientError
	switch {
	case errors.As(err, &ce):
		status = http.StatusBadRequest
	case errors.Is(err, resilience.ErrOverloaded),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		status = http.StatusServiceUnavailable
		retryAfter := h.RetryAfter
		if retryAfter <= 0 {
			retryAfter = DefaultRetryAfter
		}
		secs := int(retryAfter.Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	http.Error(w, err.Error(), status)
}

// forward relays the batch to the owning peer with the key fully
// pinned. The peer's response is read completely (size-capped) before
// a byte is relayed, so every failure mode — dial error, mid-body
// reset, slow-loris timeout, oversized answer — leaves the
// ResponseWriter untouched and retriable: failed attempts retry with
// jittered backoff, and exhausting them returns false so the caller
// falls back to local service. Any complete HTTP response from the
// peer, including an error status, counts as delivered and is relayed
// as-is (a 400 is the client's mistake wherever it surfaces). Each
// attempt's outcome feeds the peer's breaker when one is configured,
// and an open breaker skips the whole forward without dialing.
func (h *Handler) forward(w http.ResponseWriter, r *http.Request, peer string, key Key, ops []Op) bool {
	var breaker *resilience.Breaker
	if h.Breakers != nil {
		breaker = h.Breakers.For(peer)
		if !breaker.Allow() {
			return false
		}
	}
	body, err := json.Marshal(Request{
		Dataset: key.Dataset,
		Measure: key.Measure,
		Color:   &key.Color,
		Bins:    &key.Bins,
		Ops:     ops,
	})
	if err != nil {
		return false
	}
	retry := h.Retry
	attempts := retry.Attempts
	if attempts <= 0 {
		attempts = 2
	}
	for attempt := 1; ; attempt++ {
		status, contentType, payload, err := h.tryForward(r.Context(), peer, body)
		if err == nil {
			if breaker != nil {
				breaker.Success()
			}
			if contentType != "" {
				w.Header().Set("Content-Type", contentType)
			}
			w.WriteHeader(status)
			if _, err := w.Write(payload); err != nil {
				log.Printf("query: relaying response from %s: %v", peer, err)
			}
			return true
		}
		if breaker != nil {
			breaker.Failure()
			// A half-open probe gets exactly one attempt; retrying
			// against a peer the breaker just re-opened only stalls
			// the fallback.
			if !breaker.Allow() {
				log.Printf("query: forwarding %v to %s failed (breaker open), serving locally: %v", key, peer, err)
				return false
			}
		}
		if attempt >= attempts {
			log.Printf("query: forwarding %v to %s failed after %d attempts, serving locally: %v", key, peer, attempt, err)
			return false
		}
		if serr := sleepBackoff(r.Context(), retry, attempt); serr != nil {
			return false
		}
	}
}

// tryForward performs one forward attempt: POST the pinned batch,
// read the full response up to the relay cap, and return it. The peer
// response body is closed on every path. Errors mean nothing was
// relayed, so the attempt is safely retriable.
func (h *Handler) tryForward(ctx context.Context, peer string, body []byte) (status int, contentType string, payload []byte, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+"/api/v1/query", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardedHeader, "1")
	if h.ViewEpoch != nil {
		req.Header.Set(ViewEpochHeader, strconv.FormatUint(h.ViewEpoch(), 10))
	}
	client := h.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	max := h.MaxRelayBytes
	if max <= 0 {
		max = DefaultMaxRelayBytes
	}
	payload, err = io.ReadAll(io.LimitReader(resp.Body, max+1))
	if err != nil {
		return 0, "", nil, fmt.Errorf("reading peer response: %w", err)
	}
	if int64(len(payload)) > max {
		return 0, "", nil, fmt.Errorf("peer response exceeds relay cap (%d bytes)", max)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), payload, nil
}

// sleepBackoff sleeps the attempt's jittered backoff, bounded by ctx.
func sleepBackoff(ctx context.Context, cfg resilience.RetryConfig, attempt int) error {
	d := cfg.Backoff(attempt)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
