package query

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
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

// MaxPeerBytes caps every snapshot-sized peer body: a relayed query
// answer, a fetched snapshot and a pushed one. It is large enough for
// any real answer (spectra over big stand-ins run to a few MB, encoded
// snapshots more), small enough that a corrupt or hostile peer cannot
// balloon memory.
const MaxPeerBytes = 64 << 20

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
	// http.DefaultClient. Its Timeout bounds each attempt. Analyses can
	// take minutes on large datasets, so any timeout should be
	// generous — cmd/serve's -forward-timeout flag sets it.
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
	buf := responseBufs.Get().(*[]byte)
	body, err := AppendResponse((*buf)[:0], &resp)
	if cap(body) <= maxPooledResponse {
		*buf = body[:0]
		defer responseBufs.Put(buf)
	}
	if err != nil {
		// A value JSON cannot carry (a ±Inf from a library field, say)
		// leaves the response unsent: a 500, not an empty 200.
		log.Printf("query: encoding response: %v", err)
		http.Error(w, fmt.Sprintf("query: encoding response: %v", err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	if _, err := w.Write(body); err != nil {
		log.Printf("query: writing response: %v", err)
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
		w.Header().Set("Retry-After", strconv.Itoa(int(DefaultRetryAfter/time.Second)))
	}
	http.Error(w, err.Error(), status)
}

// forward relays the batch to the owning peer with the key fully
// pinned. resilience.Exchange reads the peer's response completely
// (capped at MaxPeerBytes) before a byte is relayed, so every failure
// mode — dial error, mid-body reset, slow-loris timeout, oversized
// answer — leaves the ResponseWriter untouched and retriable:
// resilience.Do retries failed attempts with jittered backoff under
// the peer's breaker, and giving up returns false so the caller falls
// back to local service. Any complete HTTP response from the peer,
// including an error status, counts as delivered and is relayed as-is
// (a 400 is the client's mistake wherever it surfaces): its status,
// Content-Type and Retry-After — so a shed owner's 503 stays an honest
// 503 with its hint — and its payload with that payload's length.
func (h *Handler) forward(w http.ResponseWriter, r *http.Request, peer string, key Key, ops []Op) bool {
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
	call := resilience.Call{
		Method:   http.MethodPost,
		URL:      peer + "/api/v1/query",
		Body:     body,
		Header:   http.Header{"Content-Type": {"application/json"}, ForwardedHeader: {"1"}},
		MaxBytes: MaxPeerBytes,
	}
	if h.ViewEpoch != nil {
		call.Header.Set(ViewEpochHeader, strconv.FormatUint(h.ViewEpoch(), 10))
	}
	var breaker *resilience.Breaker
	if h.Breakers != nil {
		breaker = h.Breakers.For(peer)
	}
	var resp *http.Response
	var payload []byte
	err = resilience.Do(r.Context(), h.Retry, breaker, func() (err error) {
		resp, payload, err = resilience.Exchange(r.Context(), h.Client, call)
		return err
	})
	if err != nil {
		if !errors.Is(err, resilience.ErrBreakerOpen) {
			log.Printf("query: forwarding %v to %s failed, serving locally: %v", key, peer, err)
		}
		return false
	}
	for _, name := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(name); v != "" {
			w.Header().Set(name, v)
		}
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
	w.WriteHeader(resp.StatusCode)
	if _, err := w.Write(payload); err != nil {
		log.Printf("query: relaying response from %s: %v", peer, err)
	}
	return true
}
