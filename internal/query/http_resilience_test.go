package query

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/resilience"
)

// noRetry keeps failure-path tests fast: one forward attempt, no
// backoff sleeping.
var noRetry = resilience.RetryConfig{
	Attempts: 1,
	Sleep:    func(context.Context, time.Duration) error { return nil },
}

// scriptedTransport is a RoundTripper that either fails (connection
// refused) or serves a canned response, counting every round trip — the
// breaker tests assert on the dial count to prove an open breaker skips
// forwarding entirely.
type scriptedTransport struct {
	mu     sync.Mutex
	calls  int
	fail   bool
	status int
	body   string
}

func (tr *scriptedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.calls++
	if tr.fail {
		return nil, fmt.Errorf("scripted transport: connection refused")
	}
	return &http.Response{
		StatusCode: tr.status,
		Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header:  http.Header{"Content-Type": []string{"application/json"}},
		Body:    io.NopCloser(strings.NewReader(tr.body)),
		Request: req,
	}, nil
}

func (tr *scriptedTransport) count() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.calls
}

func (tr *scriptedTransport) setFail(fail bool) {
	tr.mu.Lock()
	tr.fail = fail
	tr.mu.Unlock()
}

// testClock is an injectable breaker clock.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock { return &testClock{t: time.Unix(1700000000, 0)} }

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

const tinyBatch = `{"dataset": "tiny", "measure": "kcore", "ops": [{"op": "spectrum"}]}`

// expectLocalAnswer posts the tiny batch and requires a full,
// non-degraded local answer — what a fleet node must produce whenever
// forwarding to the owner fails.
func expectLocalAnswer(t *testing.T, ts *httptest.Server) {
	t.Helper()
	resp, out := postBatch(t, ts, tinyBatch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 from the local fallback", resp.StatusCode)
	}
	if out.Degraded != "" {
		t.Fatalf("local fallback marked degraded %q", out.Degraded)
	}
	if out.Snapshot.Dataset != "tiny" || out.Snapshot.Seq == 0 || len(out.Results) != 1 || out.Results[0].Error != "" {
		t.Fatalf("bad local fallback answer: %+v", out)
	}
}

// TestForwardMidBodyResetFallsBackLocally: the owner dies after sending
// headers and part of the body. Because the relay buffers the complete
// peer response before writing a byte, the failure is detected and the
// request is served locally instead of relaying a truncated body.
func TestForwardMidBodyResetFallsBackLocally(t *testing.T) {
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", "1048576")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"snapshot":`))
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler) // reset the connection mid-body
	}))
	defer peer.Close()

	e := testEngine(t, Options{})
	ts := httptest.NewServer(&Handler{
		Engine: e,
		Route:  func(Key) (string, bool) { return peer.URL, true },
		Retry:  noRetry,
	})
	defer ts.Close()
	expectLocalAnswer(t, ts)
}

// TestForwardRelaysRetryAfter: an owner that sheds answers an honest
// 503 with a Retry-After hint, and the receiver relays the hint with
// the status, the payload and the payload's length.
func TestForwardRelaysRetryAfter(t *testing.T) {
	const shed = "query: overloaded\n"
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "7")
		http.Error(w, strings.TrimSuffix(shed, "\n"), http.StatusServiceUnavailable)
	}))
	defer peer.Close()

	ts := httptest.NewServer(&Handler{
		Engine: testEngine(t, Options{}),
		Route:  func(Key) (string, bool) { return peer.URL, true },
		Retry:  noRetry,
	})
	defer ts.Close()
	resp, err := http.Post(ts.URL, "application/json", strings.NewReader(tinyBatch))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "7" || string(body) != shed {
		t.Fatalf("relayed status %d, Retry-After %q, body %q; want 503, \"7\", %q",
			resp.StatusCode, resp.Header.Get("Retry-After"), body, shed)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(shed)) {
		t.Fatalf("relayed Content-Length %q, want %d", cl, len(shed))
	}
}

// TestForwardPeerHangFallsBackLocally: the owner accepts the request
// and never answers (slow-loris). The forward client's timeout bounds
// the stall and the request falls back to local service.
func TestForwardPeerHangFallsBackLocally(t *testing.T) {
	hang := make(chan struct{})
	peer := httptest.NewServer(http.HandlerFunc(func(_ http.ResponseWriter, _ *http.Request) {
		<-hang // hold the forward well past the client timeout
	}))
	defer peer.Close()
	defer close(hang) // unblock the handler (LIFO: before Close waits on it)

	e := testEngine(t, Options{})
	ts := httptest.NewServer(&Handler{
		Engine: e,
		Route:  func(Key) (string, bool) { return peer.URL, true },
		Client: &http.Client{Timeout: 100 * time.Millisecond},
		Retry:  noRetry,
	})
	defer ts.Close()

	start := time.Now()
	expectLocalAnswer(t, ts)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("fallback took %v; the 100ms client timeout did not bound the hang", elapsed)
	}
}

// TestForwardRetrySleepsThroughRetryConfig: the backoff between
// forward attempts goes through Retry.Sleep like every other retry, so
// an injected sleeper sees exactly one Backoff(1) and no real timer
// runs.
func TestForwardRetrySleepsThroughRetryConfig(t *testing.T) {
	tr := &scriptedTransport{fail: true}
	var mu sync.Mutex
	var slept []time.Duration
	retry := resilience.RetryConfig{
		Attempts: 2,
		Base:     time.Second,
		Jitter:   func() float64 { return 0 },
		Sleep: func(_ context.Context, d time.Duration) error {
			mu.Lock()
			slept = append(slept, d)
			mu.Unlock()
			return nil
		},
	}
	e := testEngine(t, Options{})
	ts := httptest.NewServer(&Handler{
		Engine: e,
		Route:  func(Key) (string, bool) { return "http://peer.example", true },
		Client: &http.Client{Transport: tr},
		Retry:  retry,
	})
	defer ts.Close()

	expectLocalAnswer(t, ts)
	if n := tr.count(); n != 2 {
		t.Fatalf("forward made %d dials, want 2", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(slept) != 1 || slept[0] != retry.Backoff(1) {
		t.Fatalf("recorded sleeps %v, want [%v]", slept, retry.Backoff(1))
	}
}

// TestForwardedRequestIsServedLocallyWithoutDialing: a request that
// already crossed one shard hop is always served locally — even when
// the ring says another node owns the key — so a misconfigured ring
// cannot produce a forwarding loop. Zero dials prove it.
func TestForwardedRequestIsServedLocallyWithoutDialing(t *testing.T) {
	tr := &scriptedTransport{fail: true}
	e := testEngine(t, Options{})
	ts := httptest.NewServer(&Handler{
		Engine: e,
		Route:  func(Key) (string, bool) { return "http://peer.invalid", true },
		Client: &http.Client{Transport: tr},
		Retry:  noRetry,
	})
	defer ts.Close()

	req, err := http.NewRequest(http.MethodPost, ts.URL, strings.NewReader(tinyBatch))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardedHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded request status %d, want 200 served locally", resp.StatusCode)
	}
	if n := tr.count(); n != 0 {
		t.Fatalf("forwarded request dialed the transport %d times, want 0", n)
	}
}

// TestBreakerOpensSkipsDialingAndRecovers pins the acceptance
// criterion: after Threshold consecutive forward failures the next
// request skips forwarding without a single dial, and once the cooldown
// elapses and the peer answers again, a half-open probe restores
// forwarding.
func TestBreakerOpensSkipsDialingAndRecovers(t *testing.T) {
	const canned = `{"snapshot":{"seq":7},"results":[]}`
	tr := &scriptedTransport{fail: true, status: http.StatusOK, body: canned}
	clock := newTestClock()
	breakers := resilience.NewBreakerSet(resilience.BreakerConfig{
		Threshold: 2,
		Cooldown:  time.Second,
		Jitter:    func() float64 { return 0 },
		Now:       clock.Now,
	})
	const peerURL = "http://peer.example"
	e := testEngine(t, Options{})
	ts := httptest.NewServer(&Handler{
		Engine:   e,
		Route:    func(Key) (string, bool) { return peerURL, true },
		Client:   &http.Client{Transport: tr},
		Breakers: breakers,
		Retry:    noRetry,
	})
	defer ts.Close()

	// Two failing forwards trip the breaker (threshold 2); both still
	// answer locally.
	expectLocalAnswer(t, ts)
	expectLocalAnswer(t, ts)
	if got := breakers.For(peerURL).State(); got != resilience.Open {
		t.Fatalf("breaker %v after %d failures, want open", got, 2)
	}
	dials := tr.count()

	// Open breaker: the next request must not dial at all.
	expectLocalAnswer(t, ts)
	if n := tr.count(); n != dials {
		t.Fatalf("open breaker still dialed (%d -> %d round trips)", dials, n)
	}

	// Peer recovers; after the cooldown the half-open probe forwards one
	// real request, succeeds, and closes the breaker.
	tr.setFail(false)
	clock.Advance(2 * time.Second)
	resp, err := http.Post(ts.URL, "application/json", strings.NewReader(tinyBatch))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || string(body) != canned {
		t.Fatalf("half-open probe did not relay the peer answer: %d %q", resp.StatusCode, body)
	}
	if n := tr.count(); n != dials+1 {
		t.Fatalf("half-open probe made %d dials, want 1", n-dials)
	}
	if got := breakers.For(peerURL).State(); got != resilience.Closed {
		t.Fatalf("breaker %v after successful probe, want closed", got)
	}

	// Forwarding is fully restored.
	resp, err = http.Post(ts.URL, "application/json", strings.NewReader(tinyBatch))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || tr.count() != dials+2 {
		t.Fatalf("forwarding not restored after recovery: status %d, %d dials", resp.StatusCode, tr.count())
	}
}

// TestAdmissionControlShedsMissStormWith503 pins the acceptance
// criterion: a miss storm far beyond the admission bounds never runs
// more than the bounded flights; everything beyond slots+queue is shed
// immediately with 503 and a Retry-After hint, and the admitted flights
// complete normally once the backend unblocks.
func TestAdmissionControlShedsMissStormWith503(t *testing.T) {
	release := make(chan struct{})
	e := NewEngine(Options{
		MaxConcurrentAnalyses: 2,
		MaxAnalysisQueue:      2,
		Loader: func(string) (*graph.Graph, error) {
			<-release // hold the admitted flights so the storm piles up
			return testGraph(), nil
		},
	})
	ts := httptest.NewServer(&Handler{Engine: e})
	defer ts.Close()

	const storm = 12
	const admitted = 4 // 2 slots + 2 queue
	type outcome struct {
		status     int
		retryAfter string
	}
	results := make(chan outcome, storm)
	for i := 0; i < storm; i++ {
		go func(i int) {
			// Distinct datasets: every request is its own cache miss, so
			// coalescing cannot hide the storm from the gate.
			body := fmt.Sprintf(`{"dataset": "storm%d", "measure": "kcore", "ops": [{"op": "spectrum"}]}`, i)
			resp, err := http.Post(ts.URL, "application/json", strings.NewReader(body))
			if err != nil {
				results <- outcome{status: -1}
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			results <- outcome{resp.StatusCode, resp.Header.Get("Retry-After")}
		}(i)
	}

	// While the admitted flights are held, every completed response must
	// be a shed: the gate never grows past its bounds, so exactly
	// storm-admitted requests come back 503 before the release.
	deadline := time.After(30 * time.Second)
	for shed := 0; shed < storm-admitted; shed++ {
		select {
		case r := <-results:
			if r.status != http.StatusServiceUnavailable {
				t.Fatalf("pre-release response status %d, want every one shed with 503", r.status)
			}
			if r.retryAfter == "" {
				t.Fatal("shed 503 is missing the Retry-After header")
			}
		case <-deadline:
			t.Fatal("timed out waiting for the storm to be shed")
		}
	}

	close(release)
	for i := 0; i < admitted; i++ {
		select {
		case r := <-results:
			if r.status != http.StatusOK {
				t.Fatalf("admitted flight status %d, want 200 after release", r.status)
			}
		case <-deadline:
			t.Fatal("timed out waiting for the admitted flights")
		}
	}
	if got := e.AnalysisCount(); got != admitted {
		t.Fatalf("%d analyses ran, want exactly the %d admitted", got, admitted)
	}
}

// TestAbandonedContextDetachesFromAnalysis: a caller whose context
// expires gets its error immediately, but the analysis keeps running
// detached — later requests share its result instead of re-running it.
func TestAbandonedContextDetachesFromAnalysis(t *testing.T) {
	release := make(chan struct{})
	var loads atomic.Int32
	e := NewEngine(Options{
		Loader: func(string) (*graph.Graph, error) {
			loads.Add(1)
			<-release
			return testGraph(), nil
		},
	})
	key := Key{Dataset: "slow", Measure: "kcore"}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := e.SnapshotCtx(ctx, key)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("abandoned request error %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("abandoned request took %v to return", elapsed)
	}

	// The flight is still alive: unblock it and the next (patient)
	// request gets its result without a second analysis or load.
	close(release)
	snap, err := e.Snapshot(key)
	if err != nil {
		t.Fatalf("detached flight's result unavailable: %v", err)
	}
	if snap == nil || snap.Key != key {
		t.Fatalf("bad snapshot from detached flight: %+v", snap)
	}
	if got := e.AnalysisCount(); got != 1 {
		t.Fatalf("%d analyses ran, want 1 (detached flight shared)", got)
	}
	if got := loads.Load(); got != 1 {
		t.Fatalf("loader ran %d times, want 1", got)
	}
}

// TestStaleIfErrorServesDegradedSnapshot: when the fresh path fails
// after this node has analyzed the key before, AllowStale serves the
// previous snapshot explicitly marked degraded — and client mistakes
// still fail with 400, never a stale answer.
func TestStaleIfErrorServesDegradedSnapshot(t *testing.T) {
	var fail atomic.Bool
	e := NewEngine(Options{
		Loader: func(string) (*graph.Graph, error) {
			if fail.Load() {
				return nil, fmt.Errorf("loader: backend down")
			}
			return testGraph(), nil
		},
	})
	ts := httptest.NewServer(&Handler{Engine: e, AllowStale: true})
	defer ts.Close()

	body := `{"dataset": "flaky", "measure": "kcore", "ops": [{"op": "spectrum"}]}`
	resp, out := postBatch(t, ts, body)
	if resp.StatusCode != http.StatusOK || out.Degraded != "" {
		t.Fatalf("healthy request: %d degraded=%q", resp.StatusCode, out.Degraded)
	}
	freshSeq := out.Snapshot.Seq

	// Invalidate evicts the cached snapshot and graph; with the loader
	// now failing, the fresh path cannot rebuild — but the stale side
	// cache still holds the last analysis.
	e.Invalidate("flaky")
	fail.Store(true)
	resp, out = postBatch(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale-if-error status %d, want 200", resp.StatusCode)
	}
	if out.Degraded != DegradedStale {
		t.Fatalf("degraded marker %q, want %q", out.Degraded, DegradedStale)
	}
	if out.Snapshot.Seq != freshSeq {
		t.Fatalf("stale answer seq %d, want the previously analyzed %d", out.Snapshot.Seq, freshSeq)
	}

	// A client mistake (unknown measure) is a 400 even with stale
	// serving enabled.
	resp, _ = postBatch(t, ts, `{"dataset": "flaky", "measure": "nope", "ops": [{"op": "spectrum"}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("client mistake status %d, want 400 (never stale)", resp.StatusCode)
	}
}
