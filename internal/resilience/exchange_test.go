package resilience

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// errRefused is the dial failure stubTransport returns while down.
var errRefused = errors.New("connection refused")

// stubTransport stands in for a peer's network: while down it refuses
// every request, while hang it blocks each request until the request's
// context ends, and otherwise it passes requests to the default
// transport.
type stubTransport struct{ down, hang bool }

func (t stubTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	switch {
	case t.down:
		return nil, errRefused
	case t.hang:
		<-req.Context().Done()
		return nil, req.Context().Err()
	}
	return http.DefaultTransport.RoundTrip(req)
}

// countingTransport counts the attempts that reach the wire.
type countingTransport struct {
	inner http.RoundTripper
	dials atomic.Int32
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.dials.Add(1)
	return t.inner.RoundTrip(req)
}

// TestExchangeThroughDo runs one peer call per case through Do and
// Exchange and checks the dials, sleeps, error and body it costs.
func TestExchangeThroughDo(t *testing.T) {
	const payload = "0123456789"
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(payload))
	}))
	defer srv.Close()

	// tripped returns a breaker opened by one failure, with its clock
	// advanced by d (past the cooldown, the next Allow is the
	// half-open trial).
	tripped := func(d time.Duration) *Breaker {
		now := time.Unix(1700000000, 0)
		b := NewBreaker(BreakerConfig{
			Threshold: 1,
			Cooldown:  time.Second,
			Jitter:    func() float64 { return 0 },
			Now:       func() time.Time { return now },
		})
		b.Failure()
		now = now.Add(d)
		return b
	}
	errAny := errors.New("any error")
	cases := []struct {
		name     string
		down     bool
		hang     bool
		breaker  *Breaker
		after    BreakerState // the breaker's state once Do returns
		attempts int
		maxBytes int64
		timeout  time.Duration
		dials    int32
		sleeps   int
		err      error // nil: success; errAny: any error
		body     string
	}{
		{name: "body at the cap", attempts: 1, maxBytes: int64(len(payload)), dials: 1, body: payload},
		{name: "transport error", down: true, attempts: 1, maxBytes: 64, dials: 1, err: errRefused},
		{name: "body one byte over the cap", attempts: 1, maxBytes: int64(len(payload)) - 1, dials: 1, err: errAny},
		{name: "hang bounded by the attempt timeout", hang: true, attempts: 1, maxBytes: 64,
			timeout: 50 * time.Millisecond, dials: 1, err: context.DeadlineExceeded},
		{name: "open breaker refuses the first attempt", breaker: tripped(0), after: Open, attempts: 3,
			maxBytes: 64, dials: 0, err: ErrBreakerOpen},
		{name: "half-open trial gets one attempt", breaker: tripped(2 * time.Second), after: Open, down: true, attempts: 3,
			maxBytes: 64, dials: 1, err: errRefused},
		{name: "closed breaker retries", breaker: NewBreaker(BreakerConfig{}), after: Closed, down: true, attempts: 3,
			maxBytes: 64, dials: 3, sleeps: 2, err: errRefused},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := &countingTransport{inner: stubTransport{down: tc.down, hang: tc.hang}}
			client := &http.Client{Transport: tr}
			sleeps := 0
			cfg := RetryConfig{
				Attempts: tc.attempts,
				Sleep:    func(context.Context, time.Duration) error { sleeps++; return nil },
			}
			call := Call{Method: http.MethodGet, URL: srv.URL, Timeout: tc.timeout, MaxBytes: tc.maxBytes}
			var body []byte
			start := time.Now()
			err := Do(context.Background(), cfg, tc.breaker, func() (err error) {
				_, body, err = Exchange(context.Background(), client, call)
				return err
			})
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("call took %v", elapsed)
			}
			switch {
			case tc.err == nil && err != nil:
				t.Fatalf("err %v, want success", err)
			case tc.err == errAny && err == nil:
				t.Fatal("err nil, want an error")
			case tc.err != nil && tc.err != errAny && !errors.Is(err, tc.err):
				t.Fatalf("err %v, want %v", err, tc.err)
			}
			if string(body) != tc.body {
				t.Fatalf("body %q, want %q", body, tc.body)
			}
			if n := tr.dials.Load(); n != tc.dials || sleeps != tc.sleeps {
				t.Fatalf("%d dials and %d sleeps, want %d and %d", n, sleeps, tc.dials, tc.sleeps)
			}
			if tc.breaker != nil && tc.breaker.State() != tc.after {
				t.Fatalf("breaker %v, want %v", tc.breaker.State(), tc.after)
			}
		})
	}
}
