package query

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/resilience"
)

// snapshotServer serves one engine's snapshot-exchange endpoint over
// httptest, answering GETs from the given local lookup.
func snapshotServer(t *testing.T, e *Engine, local func(Key) (*Snapshot, bool)) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(&SnapshotHandler{Engine: e, Local: local})
	t.Cleanup(srv.Close)
	return srv
}

// TestRemoteSnapshotAliasesReceivedBytes: a peer snapshot decodes from
// the received bytes in place, so its graph's arena is a sub-slice of
// them rather than of a second copy.
func TestRemoteSnapshotAliasesReceivedBytes(t *testing.T) {
	key := Key{Dataset: "tiny", Measure: "kcore", Color: "degree"}
	e := NewEngine(Options{})
	e.RegisterDataset("tiny", testGraph())
	snap, err := e.Snapshot(key)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	// A fresh heap allocation this size is 8-aligned, as a received
	// body is, so the csr2 payload needs no aligning copy.
	data := append(make([]byte, 0, buf.Len()), buf.Bytes()...)
	got, err := decodeRemoteSnapshot(data, key, 0)
	if err != nil {
		t.Fatal(err)
	}
	arena := graph.ArenaWireBytes(got.Graph)
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
	at := uintptr(unsafe.Pointer(unsafe.SliceData(arena)))
	if at < lo || at+uintptr(len(arena)) > lo+uintptr(len(data)) {
		t.Fatalf("decoded graph's arena at %#x does not lie in the received bytes [%#x, %#x)", at, lo, lo+uintptr(len(data)))
	}
}

// TestPeerStoreHydratesFromPeer is the hydration half of the tentpole
// in miniature: node B misses locally, fetches A's encoded snapshot,
// verifies it, and answers byte-identically with zero local analyses.
func TestPeerStoreHydratesFromPeer(t *testing.T) {
	key := Key{Dataset: "tiny", Measure: "kcore", Color: "degree"}
	eA := testEngine(t, Options{})
	snapA, err := eA.Snapshot(key)
	if err != nil {
		t.Fatal(err)
	}
	srv := snapshotServer(t, eA, func(k Key) (*Snapshot, bool) {
		if k == key {
			return snapA, true
		}
		return nil, false
	})

	var fetched []string
	pf := &PeerFetcher{
		Self:  "b",
		Owner: func(Key) string { return "a" },
		Peers: func() map[string]string { return map[string]string{"a": srv.URL} },
		OnFetch: func(k Key, peer string) {
			fetched = append(fetched, peer)
		},
	}
	eB := NewEngine(Options{Hydrate: pf.Fetch})
	eB.RegisterDataset("tiny", testGraph())

	snapB, err := eB.Snapshot(key)
	if err != nil {
		t.Fatal(err)
	}
	if got := eB.AnalysisCount(); got != 0 {
		t.Fatalf("hydrating node ran %d analyses, want 0", got)
	}
	if len(fetched) != 1 || fetched[0] != "a" {
		t.Fatalf("OnFetch fired %v, want one fetch from a", fetched)
	}
	if snapB.Seq != snapA.Seq {
		t.Fatalf("hydrated seq %d != owner's %d", snapB.Seq, snapA.Seq)
	}
	if want, got := resolveJSON(t, eA, snapA), resolveJSON(t, eB, snapB); !bytes.Equal(want, got) {
		t.Fatalf("hydrated snapshot answers differently:\nwant %s\ngot  %s", want, got)
	}
	// The flight stored the fetched snapshot: the next request is a
	// plain local hit, no second fetch.
	if _, err := eB.Snapshot(key); err != nil {
		t.Fatal(err)
	}
	if len(fetched) != 1 {
		t.Fatalf("second request re-fetched (%v)", fetched)
	}
}

// TestPeerStoreMissFallsThroughToAnalysis: a fleet of clean 404s must
// degrade to exactly one local analysis, not an error.
func TestPeerStoreMissFallsThroughToAnalysis(t *testing.T) {
	key := Key{Dataset: "tiny", Measure: "kcore"}
	eA := testEngine(t, Options{})
	srv := snapshotServer(t, eA, func(Key) (*Snapshot, bool) { return nil, false })

	pf := &PeerFetcher{
		Self:  "b",
		Peers: func() map[string]string { return map[string]string{"a": srv.URL} },
	}
	eB := NewEngine(Options{Hydrate: pf.Fetch})
	eB.RegisterDataset("tiny", testGraph())

	if _, err := eB.Snapshot(key); err != nil {
		t.Fatal(err)
	}
	if got := eB.AnalysisCount(); got != 1 {
		t.Fatalf("ran %d analyses after peer 404, want 1", got)
	}
}

// TestPeerStoreRejectsDivergedGeneration: a peer whose snapshot was
// analyzed under another invalidation generation must not hydrate —
// the receiver falls through to a fresh analysis under its own
// generation.
func TestPeerStoreRejectsDivergedGeneration(t *testing.T) {
	key := Key{Dataset: "tiny", Measure: "kcore"}
	eA := testEngine(t, Options{})
	snapA, err := eA.Snapshot(key) // generation 0
	if err != nil {
		t.Fatal(err)
	}
	srv := snapshotServer(t, eA, func(k Key) (*Snapshot, bool) {
		if k == key {
			return snapA, true
		}
		return nil, false
	})

	pf := &PeerFetcher{
		Self:  "b",
		Peers: func() map[string]string { return map[string]string{"a": srv.URL} },
	}
	eB := NewEngine(Options{Hydrate: pf.Fetch})
	eB.RegisterDataset("tiny", testGraph())
	eB.Invalidate("tiny") // B is at generation 1; A's snapshot is not

	snapB, err := eB.Snapshot(key)
	if err != nil {
		t.Fatal(err)
	}
	if got := eB.AnalysisCount(); got != 1 {
		t.Fatalf("ran %d analyses, want 1 (stale peer snapshot must be rejected)", got)
	}
	if snapB.Seq == snapA.Seq {
		t.Fatal("post-invalidation snapshot reused the pre-invalidation seq")
	}
}

// TestPeerStoreOpenBreakerSkipsWithoutSleeping: a candidate whose
// breaker is open costs nothing — no dial and no backoff sleep — so a
// hydration miss against a dead peer falls through to analysis at once.
func TestPeerStoreOpenBreakerSkipsWithoutSleeping(t *testing.T) {
	const peerURL = "http://peer.example"
	tr := &scriptedTransport{fail: true}
	breakers := resilience.NewBreakerSet(resilience.BreakerConfig{Threshold: 1, Now: newTestClock().Now})
	breakers.For(peerURL).Failure()
	var sleeps int
	pf := &PeerFetcher{
		Self:     "b",
		Peers:    func() map[string]string { return map[string]string{"a": peerURL} },
		Client:   &http.Client{Transport: tr},
		Breakers: breakers,
		Retry: resilience.RetryConfig{
			Attempts: 3,
			Sleep:    func(context.Context, time.Duration) error { sleeps++; return nil },
		},
	}
	if _, ok := pf.Fetch(Key{Dataset: "tiny", Measure: "kcore"}, 0); ok {
		t.Fatal("fetch through an open breaker hydrated a snapshot")
	}
	if n := tr.count(); n != 0 || sleeps != 0 {
		t.Fatalf("open breaker cost %d dials and %d sleeps, want 0 and 0", n, sleeps)
	}
}

// TestPeerFetchStaleAnswerIsNotAFailure: a healthy peer that lags one
// invalidation broadcast answers with a snapshot of the previous
// generation. That answer is rejected, but it is not a peer failure:
// one dial, no retry, no backoff sleep, the breaker it shares with
// forwarding stays closed, and the receiver analyzes once.
func TestPeerFetchStaleAnswerIsNotAFailure(t *testing.T) {
	key := Key{Dataset: "tiny", Measure: "kcore"}
	eA := testEngine(t, Options{})
	snapA, err := eA.Snapshot(key) // generation 0
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := EncodeSnapshot(&body, snapA); err != nil {
		t.Fatal(err)
	}
	const peerURL = "http://peer.example"
	tr := &scriptedTransport{status: http.StatusOK, body: body.String()}
	breakers := resilience.NewBreakerSet(resilience.BreakerConfig{Threshold: 2, Now: newTestClock().Now})
	var sleeps int
	pf := &PeerFetcher{
		Self:     "b",
		Peers:    func() map[string]string { return map[string]string{"a": peerURL} },
		Client:   &http.Client{Transport: tr},
		Breakers: breakers,
		Retry: resilience.RetryConfig{
			Attempts: 3,
			Sleep:    func(context.Context, time.Duration) error { sleeps++; return nil },
		},
	}
	eB := NewEngine(Options{Hydrate: pf.Fetch})
	eB.RegisterDataset("tiny", testGraph())
	eB.Invalidate("tiny") // B is at generation 1; the peer lags at 0

	snapB, err := eB.Snapshot(key)
	if err != nil {
		t.Fatal(err)
	}
	if n := tr.count(); n != 1 || sleeps != 0 {
		t.Fatalf("stale peer answer cost %d dials and %d sleeps, want 1 and 0", n, sleeps)
	}
	if st := breakers.For(peerURL).State(); st != resilience.Closed {
		t.Fatalf("stale peer answer left the breaker %v, want closed", st)
	}
	if got := eB.AnalysisCount(); got != 1 {
		t.Fatalf("ran %d analyses, want 1", got)
	}
	if snapB.Seq != eB.ExpectedSeq(key) {
		t.Fatalf("served seq %d, generation 1 demands %d", snapB.Seq, eB.ExpectedSeq(key))
	}
}

// addLog is a snapshot store that records the Seq of every insert.
// Reads happen after the inserting flight has finished.
type addLog struct {
	SnapshotStore
	seqs []uint64
}

func (s *addLog) Add(key Key, snap *Snapshot) {
	s.seqs = append(s.seqs, snap.Seq)
	s.SnapshotStore.Add(key, snap)
}

// heldSnapshotServer serves snap for key, holding the first GET until
// release is closed; entered is closed when that GET arrives. gets
// counts every request.
func heldSnapshotServer(t *testing.T, e *Engine, key Key, snap *Snapshot) (srv *httptest.Server, entered, release chan struct{}, gets *atomic.Int64) {
	t.Helper()
	entered, release, gets = make(chan struct{}), make(chan struct{}), new(atomic.Int64)
	h := &SnapshotHandler{Engine: e, Local: func(k Key) (*Snapshot, bool) { return snap, k == key }}
	srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if gets.Add(1) == 1 {
			close(entered)
			<-release
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, entered, release, gets
}

// TestInvalidateRacingHydration: a peer fetch that an Invalidate
// overtakes must leave nothing stale behind. The flight's waiter gets
// the hydrated snapshot (it asked before the invalidation), but the
// generation guard keeps it out of the store, so neither the
// snapshot-exchange endpoint nor the handoff walk can reach it, and
// the next request analyzes under the new generation.
func TestInvalidateRacingHydration(t *testing.T) {
	key := Key{Dataset: "tiny", Measure: "kcore"}
	eA := testEngine(t, Options{})
	snapA, err := eA.Snapshot(key)
	if err != nil {
		t.Fatal(err)
	}
	srv, entered, release, _ := heldSnapshotServer(t, eA, key, snapA)
	store := &addLog{SnapshotStore: NewMemorySnapshotStore(4)}
	pf := &PeerFetcher{Self: "b", Peers: func() map[string]string { return map[string]string{"a": srv.URL} }}
	eB := NewEngine(Options{Store: store, Hydrate: pf.Fetch})
	eB.RegisterDataset("tiny", testGraph())

	type result struct {
		snap *Snapshot
		err  error
	}
	done := make(chan result, 1)
	go func() {
		snap, err := eB.Snapshot(key)
		done <- result{snap, err}
	}()
	<-entered             // the fetch is waiting on the peer's answer
	eB.Invalidate("tiny") // race: invalidation lands mid-fetch
	close(release)
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.snap.Seq != snapA.Seq || eB.AnalysisCount() != 0 {
		t.Fatalf("raced request got seq %d after %d analyses, want the hydrated %d after 0",
			r.snap.Seq, eB.AnalysisCount(), snapA.Seq)
	}
	if stale, ok := eB.StaleSnapshot(key); !ok || stale.Seq != snapA.Seq {
		t.Fatal("the hydrated snapshot did not feed the stale-if-error cache")
	}
	if store.Contains(key) || slices.Contains(store.Keys(), key) || len(store.seqs) != 0 {
		t.Fatalf("stale hydrated snapshot reached the store (inserted seqs %v)", store.seqs)
	}

	snap, err := eB.Snapshot(key)
	if err != nil {
		t.Fatal(err)
	}
	if got := eB.AnalysisCount(); got != 1 {
		t.Fatalf("ran %d analyses after the race, want 1", got)
	}
	if want := eB.ExpectedSeq(key); snap.Seq != want || !store.Contains(key) {
		t.Fatalf("post-race snapshot seq %d (cached %v), want %d cached", snap.Seq, store.Contains(key), want)
	}
}

// TestConcurrentMissesHydrateOnce: concurrent misses on one key share
// the engine's flight, so they fetch from the peer once and analyze
// never.
func TestConcurrentMissesHydrateOnce(t *testing.T) {
	key := Key{Dataset: "tiny", Measure: "kcore", Color: "degree"}
	eA := testEngine(t, Options{})
	snapA, err := eA.Snapshot(key)
	if err != nil {
		t.Fatal(err)
	}
	srv, entered, release, gets := heldSnapshotServer(t, eA, key, snapA)
	pf := &PeerFetcher{Self: "b", Peers: func() map[string]string { return map[string]string{"a": srv.URL} }}
	eB := NewEngine(Options{Hydrate: pf.Fetch})
	eB.RegisterDataset("tiny", testGraph())

	const workers = 16
	snaps := make([]*Snapshot, workers)
	var wg sync.WaitGroup
	for w := range snaps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			snap, err := eB.Snapshot(key)
			if err != nil {
				t.Error(err)
				return
			}
			snaps[w] = snap
		}()
	}
	<-entered
	close(release)
	wg.Wait()
	if n := gets.Load(); n != 1 || eB.AnalysisCount() != 0 {
		t.Fatalf("%d concurrent misses made %d fetches and %d analyses, want 1 and 0", workers, n, eB.AnalysisCount())
	}
	for w, snap := range snaps {
		if snap != snaps[0] {
			t.Fatalf("worker %d got a different snapshot", w)
		}
	}
}

// TestSnapshotPushAdoptsAndConflicts covers the handoff PUT: a push
// matching the receiver's generation is adopted (the receiver then
// serves it with zero analyses); a push from a diverged generation is
// rejected with 409.
func TestSnapshotPushAdoptsAndConflicts(t *testing.T) {
	key := Key{Dataset: "tiny", Measure: "kcore", Color: "degree"}
	eA := testEngine(t, Options{})
	snapA, err := eA.Snapshot(key)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := EncodeSnapshot(&body, snapA); err != nil {
		t.Fatal(err)
	}

	pushed := 0
	eB := testEngine(t, Options{})
	srv := httptest.NewServer(&SnapshotHandler{
		Engine: eB,
		OnPush: func(Key) { pushed++ },
	})
	defer srv.Close()

	put := func(t *testing.T) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPut, SnapshotFetchURL(srv.URL, key), bytes.NewReader(body.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if resp := put(t); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("push status %d, want 204", resp.StatusCode)
	}
	if pushed != 1 {
		t.Fatalf("OnPush fired %d times, want 1", pushed)
	}
	snapB, err := eB.Snapshot(key)
	if err != nil {
		t.Fatal(err)
	}
	if got := eB.AnalysisCount(); got != 0 {
		t.Fatalf("receiver ran %d analyses after push, want 0", got)
	}
	if want, got := resolveJSON(t, eA, snapA), resolveJSON(t, eB, snapB); !bytes.Equal(want, got) {
		t.Fatalf("pushed snapshot answers differently:\nwant %s\ngot  %s", want, got)
	}

	// After an invalidation the same push is stale: 409, not adopted.
	eB.Invalidate("tiny")
	if resp := put(t); resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale push status %d, want 409", resp.StatusCode)
	}
	if pushed != 1 {
		t.Fatal("stale push fired OnPush")
	}
}

// TestSnapshotHandlerRejectsMismatchedPath: the path hash is
// self-verifying — a URL whose hash does not match its own query
// parameters is a 400. So is a bins count the snapshot codec could not
// carry, on GET and PUT alike.
func TestSnapshotHandlerRejectsMismatchedPath(t *testing.T) {
	e := testEngine(t, Options{})
	srv := snapshotServer(t, e, func(Key) (*Snapshot, bool) { return nil, false })
	wrong := strings.Replace(
		SnapshotFetchURL(srv.URL, Key{Dataset: "tiny", Measure: "kcore"}),
		"measure=kcore", "measure=degree", 1)
	for _, url := range []string{
		wrong,
		SnapshotFetchURL(srv.URL, Key{Dataset: "tiny", Measure: "kcore", Bins: -1}),
		SnapshotFetchURL(srv.URL, Key{Dataset: "tiny", Measure: "kcore", Bins: 1<<30 + 1}),
	} {
		for _, method := range []string{http.MethodGet, http.MethodPut} {
			req, err := http.NewRequest(method, url, strings.NewReader("x"))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s %s: status %d, want 400", method, url, resp.StatusCode)
			}
		}
	}
}

// TestInvalidationHandlerPropagatesGenerations: the origin form bumps
// (firing OnInvalidate), the gen= form adopts without re-firing, and
// stale redeliveries are no-ops.
func TestInvalidationHandlerPropagatesGenerations(t *testing.T) {
	var broadcasts []uint64
	e := NewEngine(Options{
		OnInvalidate: func(dataset string, gen uint64) { broadcasts = append(broadcasts, gen) },
	})
	e.RegisterDataset("tiny", testGraph())
	srv := httptest.NewServer(&InvalidationHandler{Engine: e})
	defer srv.Close()

	post := func(t *testing.T, query string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/api/v1/invalidate?"+query, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if status := post(t, "dataset=tiny"); status != http.StatusOK {
		t.Fatalf("origin invalidate status %d", status)
	}
	if got := e.DatasetGeneration("tiny"); got != 1 {
		t.Fatalf("generation %d after origin invalidate, want 1", got)
	}
	if len(broadcasts) != 1 || broadcasts[0] != 1 {
		t.Fatalf("OnInvalidate fired %v, want [1]", broadcasts)
	}
	// A propagated broadcast adopts the absolute generation silently.
	if status := post(t, "dataset=tiny&gen=5"); status != http.StatusOK {
		t.Fatalf("adopt status %d", status)
	}
	if got := e.DatasetGeneration("tiny"); got != 5 {
		t.Fatalf("generation %d after adopt, want 5", got)
	}
	// Stale redelivery: no regression.
	post(t, "dataset=tiny&gen=3")
	if got := e.DatasetGeneration("tiny"); got != 5 {
		t.Fatalf("stale broadcast regressed generation to %d", got)
	}
	if len(broadcasts) != 1 {
		t.Fatalf("adopted broadcasts re-fired OnInvalidate: %v", broadcasts)
	}
}

// TestGenerationFileDurability: Saves survive reopening; a corrupt
// file is quarantined and the table restarts empty instead of
// refusing to start.
func TestGenerationFileDurability(t *testing.T) {
	path := filepath.Join(t.TempDir(), "generations")
	g1, err := NewGenerationFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g1.Save("tiny", 3); err != nil {
		t.Fatal(err)
	}
	if err := g1.Save("other", 1); err != nil {
		t.Fatal(err)
	}
	// Monotonic: a stale save must not regress the table.
	if err := g1.Save("tiny", 2); err != nil {
		t.Fatal(err)
	}

	g2, err := NewGenerationFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gens, err := g2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if gens["tiny"] != 3 || gens["other"] != 1 {
		t.Fatalf("reloaded generations %v, want tiny=3 other=1", gens)
	}

	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	g3, err := NewGenerationFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if gens, _ := g3.Load(); len(gens) != 0 {
		t.Fatalf("corrupt file yielded generations %v, want empty", gens)
	}
	if _, err := os.Stat(filepath.Join(filepath.Dir(path), corruptPrefix+filepath.Base(path))); err != nil {
		t.Fatalf("corrupt generation file was not quarantined: %v", err)
	}
}

// TestDurableGenerationsSurviveRestart is the acceptance criterion's
// restart-durability scenario: analyze, invalidate, re-analyze, then
// restart the whole storage stack — the reloaded engine serves the
// post-invalidation snapshot with the same Seq and zero analyses.
func TestDurableGenerationsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	key := Key{Dataset: "tiny", Measure: "kcore", Color: "degree"}
	newStack := func(t *testing.T) *Engine {
		t.Helper()
		store, err := NewDiskStore(filepath.Join(dir, "snaps"), 0)
		if err != nil {
			t.Fatal(err)
		}
		gens, err := NewGenerationFile(filepath.Join(dir, "generations"))
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(Options{Store: store, Generations: gens})
		e.RegisterDataset("tiny", testGraph())
		return e
	}

	e1 := newStack(t)
	if _, err := e1.Snapshot(key); err != nil {
		t.Fatal(err)
	}
	e1.Invalidate("tiny")
	snap1, err := e1.Snapshot(key)
	if err != nil {
		t.Fatal(err)
	}
	if got := e1.AnalysisCount(); got != 2 {
		t.Fatalf("first lifetime ran %d analyses, want 2", got)
	}
	want := resolveJSON(t, e1, snap1)

	e2 := newStack(t)
	if got := e2.DatasetGeneration("tiny"); got != 1 {
		t.Fatalf("restarted generation %d, want 1", got)
	}
	snap2, err := e2.Snapshot(key)
	if err != nil {
		t.Fatal(err)
	}
	if got := e2.AnalysisCount(); got != 0 {
		t.Fatalf("restarted engine re-analyzed (%d), want 0", got)
	}
	if snap2.Seq != snap1.Seq {
		t.Fatalf("restarted seq %d != pre-restart %d", snap2.Seq, snap1.Seq)
	}
	if got := resolveJSON(t, e2, snap2); !bytes.Equal(want, got) {
		t.Fatalf("restarted snapshot answers differently:\nwant %s\ngot  %s", want, got)
	}
}

// TestSeqGuardEvictsStaleDiskEntry pins the crash-window closure: a
// persisted generation ahead of a stale on-disk snapshot (the crash
// landed between Invalidate's persist and its eviction) must read as
// a miss, not serve pre-invalidation data.
func TestSeqGuardEvictsStaleDiskEntry(t *testing.T) {
	dir := t.TempDir()
	key := Key{Dataset: "tiny", Measure: "kcore"}
	store1, err := NewDiskStore(filepath.Join(dir, "snaps"), 0)
	if err != nil {
		t.Fatal(err)
	}
	gens1, err := NewGenerationFile(filepath.Join(dir, "generations"))
	if err != nil {
		t.Fatal(err)
	}
	e1 := NewEngine(Options{Store: store1, Generations: gens1})
	e1.RegisterDataset("tiny", testGraph())
	snap1, err := e1.Snapshot(key)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the crash window: the generation persists but the
	// snapshot eviction never runs.
	if err := gens1.Save("tiny", 1); err != nil {
		t.Fatal(err)
	}

	store2, err := NewDiskStore(filepath.Join(dir, "snaps"), 0)
	if err != nil {
		t.Fatal(err)
	}
	gens2, err := NewGenerationFile(filepath.Join(dir, "generations"))
	if err != nil {
		t.Fatal(err)
	}
	e2 := NewEngine(Options{Store: store2, Generations: gens2})
	e2.RegisterDataset("tiny", testGraph())
	snap2, err := e2.Snapshot(key)
	if err != nil {
		t.Fatal(err)
	}
	if got := e2.AnalysisCount(); got != 1 {
		t.Fatalf("restart served the stale disk snapshot (%d analyses, want 1)", got)
	}
	if snap2.Seq == snap1.Seq {
		t.Fatal("post-crash snapshot reused the stale seq")
	}
}
