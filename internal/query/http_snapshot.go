package query

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
)

// SeqHeader carries a served snapshot's Seq on fetch responses, so a
// fetching peer can log what it received even when verification
// rejects the body.
const SeqHeader = "X-Scalarfield-Seq"

// SnapshotHandler serves the fleet snapshot-exchange endpoint,
// GET/PUT /api/v1/snapshot/{hash}:
//
//   - GET returns the locally held snapshot for the key named by the
//     query parameters, encoded in the standard snapshot wire format —
//     the bytes a DiskStore would persist. It consults only local
//     state (Local must not trigger peer fetch or analysis), so a
//     fleet of mutual misses bottoms out in 404s, never a fetch storm.
//   - PUT accepts a snapshot push — the ownership-handoff path: a node
//     whose ring arc moved sends its entries to the new owner. The
//     body is size-capped, decoded through the untrusted path, and
//     adopted only if its key matches the URL and its Seq matches the
//     receiver's current generation (409 otherwise).
//
// The {hash} path element must equal the key's own shard-string hash;
// a mismatch is a 400. That makes the URL self-verifying: a confused
// sender cannot file a snapshot under the wrong identity.
type SnapshotHandler struct {
	Engine *Engine
	// Local returns the locally held snapshot for a key, retained for
	// the caller, without any peer fetch or analysis: the Get of the
	// store beneath the engine, which never hydrates (hydration runs
	// in the engine's flight). Required for GET; nil makes every GET a
	// 404.
	Local func(Key) (*Snapshot, bool)
	// OnPush, when set, fires after a successfully adopted push (test
	// and metrics hook).
	OnPush func(Key)
}

// snapshotKeyFromRequest parses the key from the query parameters and
// checks it against the path hash.
func snapshotKeyFromRequest(r *http.Request) (Key, error) {
	q := r.URL.Query()
	key := Key{
		Dataset: q.Get("dataset"),
		Measure: q.Get("measure"),
		Color:   q.Get("color"),
	}
	if key.Dataset == "" || key.Measure == "" {
		return Key{}, fmt.Errorf("dataset and measure are required")
	}
	if binsStr := q.Get("bins"); binsStr != "" {
		bins, err := strconv.Atoi(binsStr)
		if err != nil {
			return Key{}, fmt.Errorf("bad bins %q: %v", binsStr, err)
		}
		key.Bins = bins
	}
	if err := ValidateKey(key); err != nil {
		return Key{}, err
	}
	wantPath := SnapshotPath(key)
	if got := r.URL.Path; got != wantPath {
		return Key{}, fmt.Errorf("path %s does not match key %v (want %s)", got, key, wantPath)
	}
	return key, nil
}

func (h *SnapshotHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasPrefix(r.URL.Path, snapshotPathPrefix) {
		http.NotFound(w, r)
		return
	}
	key, err := snapshotKeyFromRequest(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodGet:
		h.serveGet(w, key)
	case http.MethodPut:
		h.servePut(w, r, key)
	default:
		w.Header().Set("Allow", "GET, PUT")
		http.Error(w, "GET or PUT only", http.StatusMethodNotAllowed)
	}
}

func (h *SnapshotHandler) serveGet(w http.ResponseWriter, key Key) {
	if h.Local == nil {
		http.NotFound(w, nil)
		return
	}
	snap, ok := h.Local(key)
	if !ok {
		http.Error(w, "snapshot not held locally", http.StatusNotFound)
		return
	}
	defer snap.Release()
	// Encode fully before writing: an encode failure must surface as a
	// 500, not a torn 200 body the fetcher then quarantines the peer
	// over.
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, snap); err != nil {
		log.Printf("query: encoding snapshot %v for peer fetch: %v", key, err)
		http.Error(w, "encoding snapshot failed", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.Header().Set(SeqHeader, strconv.FormatUint(snap.Seq, 10))
	if _, err := w.Write(buf.Bytes()); err != nil {
		log.Printf("query: writing snapshot %v to peer: %v", key, err)
	}
}

func (h *SnapshotHandler) servePut(w http.ResponseWriter, r *http.Request, key Key) {
	data, err := io.ReadAll(io.LimitReader(r.Body, MaxPeerBytes+1))
	if err != nil {
		http.Error(w, fmt.Sprintf("reading push body: %v", err), http.StatusBadRequest)
		return
	}
	if len(data) > MaxPeerBytes {
		http.Error(w, fmt.Sprintf("push body exceeds %d bytes", MaxPeerBytes), http.StatusRequestEntityTooLarge)
		return
	}
	snap, err := decodeRemoteSnapshot(data, key, h.Engine.DatasetGeneration(key.Dataset))
	if err != nil {
		if errors.Is(err, ErrSnapshotStale) {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := h.Engine.AdoptSnapshot(snap); err != nil {
		// The only way adoption fails after decode verified the Seq is
		// an invalidation racing between the two reads — a conflict,
		// not a bad request.
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	if h.OnPush != nil {
		h.OnPush(key)
	}
	w.WriteHeader(http.StatusNoContent)
}

// InvalidationHandler serves POST /api/v1/invalidate — both halves of
// fleet-wide invalidation:
//
//   - Without a gen parameter it is the origin call (operator or
//     streaming updater): Invalidate bumps the dataset's generation,
//     which persists, evicts, and fires the engine's OnInvalidate hook
//     (cmd/serve's broadcast).
//   - With gen=N it is a propagated broadcast: AdoptGeneration raises
//     the local generation to N (no-op if already there), persists and
//     evicts, and does NOT re-broadcast — carrying the absolute
//     generation instead of re-bumping is what keeps Snapshot.Seq
//     equal fleet-wide.
//
// The response reports the dataset's resulting generation either way.
type InvalidationHandler struct {
	Engine *Engine
}

func (h *InvalidationHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	dataset := r.URL.Query().Get("dataset")
	if dataset == "" {
		http.Error(w, "dataset is required", http.StatusBadRequest)
		return
	}
	if genStr := r.URL.Query().Get("gen"); genStr != "" {
		gen, err := strconv.ParseUint(genStr, 10, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad gen %q: %v", genStr, err), http.StatusBadRequest)
			return
		}
		h.Engine.AdoptGeneration(dataset, gen)
	} else {
		h.Engine.Invalidate(dataset)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"dataset":    dataset,
		"generation": h.Engine.DatasetGeneration(dataset),
	})
}
