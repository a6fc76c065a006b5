package main

// Deterministic fault injection for the chaos test: an Injector draws
// seeded fault decisions per named channel, FaultKV injects them into
// a snapshot store's reads and writes, and FaultTransport into a
// peer's HTTP round trips.

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Fault is one injected failure mode.
type Fault uint8

const (
	// FaultNone: the operation proceeds untouched.
	FaultNone Fault = iota
	// FaultError: the operation fails outright (a store read misses, a
	// dial is refused).
	FaultError
	// FaultCorrupt: the operation's backing bytes are corrupted before
	// it runs, so the real decode/validation path sees garbage.
	FaultCorrupt
	// FaultLatency: the operation is delayed, then proceeds.
	FaultLatency
	// FaultReset: a transport response is cut mid-body, after headers.
	FaultReset
	// FaultHang: a transport request blocks until its context ends —
	// the slow-loris peer.
	FaultHang
)

func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultError:
		return "error"
	case FaultCorrupt:
		return "corrupt"
	case FaultLatency:
		return "latency"
	case FaultReset:
		return "reset"
	case FaultHang:
		return "hang"
	}
	return "unknown"
}

// FaultWeights are per-decision probabilities of each fault, summing
// to at most 1; the remainder is FaultNone.
type FaultWeights struct {
	Error   float64
	Corrupt float64
	Latency float64
	Reset   float64
	Hang    float64
}

// Injector draws deterministic fault decisions from named channels.
// Each channel owns an independent splitmix64 stream seeded by (seed,
// channel name), so the Nth decision on a channel is a pure function
// of the seed — chaos runs replay identically as long as each
// channel's operations happen in a deterministic order (e.g. a
// sequential request loop). Unconfigured channels always decide
// FaultNone. Safe for concurrent use.
type Injector struct {
	seed uint64

	mu       sync.Mutex
	channels map[string]*faultChannel
}

type faultChannel struct {
	rng     uint64
	weights FaultWeights
	counts  map[Fault]int
}

// NewInjector returns an injector whose channels derive from seed.
func NewInjector(seed int64) *Injector {
	return &Injector{seed: uint64(seed), channels: make(map[string]*faultChannel)}
}

// Configure sets a channel's fault probabilities, (re)seeding its
// stream deterministically from the injector seed and the channel
// name.
func (i *Injector) Configure(channel string, w FaultWeights) {
	h := fnv.New64a()
	h.Write([]byte(channel))
	i.mu.Lock()
	i.channels[channel] = &faultChannel{
		rng:     splitmix64Seed(i.seed ^ h.Sum64()),
		weights: w,
		counts:  make(map[Fault]int),
	}
	i.mu.Unlock()
}

// Decide draws the next fault on the channel. Unconfigured channels
// return FaultNone without consuming anything.
func (i *Injector) Decide(channel string) Fault {
	i.mu.Lock()
	defer i.mu.Unlock()
	c, ok := i.channels[channel]
	if !ok {
		return FaultNone
	}
	var u uint64
	u, c.rng = splitmix64(c.rng)
	x := float64(u>>11) / (1 << 53) // uniform [0, 1)
	f := FaultNone
	w := c.weights
	switch {
	case x < w.Error:
		f = FaultError
	case x < w.Error+w.Corrupt:
		f = FaultCorrupt
	case x < w.Error+w.Corrupt+w.Latency:
		f = FaultLatency
	case x < w.Error+w.Corrupt+w.Latency+w.Reset:
		f = FaultReset
	case x < w.Error+w.Corrupt+w.Latency+w.Reset+w.Hang:
		f = FaultHang
	}
	c.counts[f]++
	return f
}

// Counts reports how often each fault (FaultNone included) has been
// decided on the channel — the chaos tests assert the schedule
// actually fired.
func (i *Injector) Counts(channel string) map[Fault]int {
	i.mu.Lock()
	defer i.mu.Unlock()
	out := make(map[Fault]int)
	if c, ok := i.channels[channel]; ok {
		for f, n := range c.counts {
			out[f] = n
		}
	}
	return out
}

// splitmix64Seed runs one mixing step so nearby seeds diverge.
func splitmix64Seed(s uint64) uint64 {
	_, next := splitmix64(s)
	return next
}

// splitmix64 returns the next output and the advanced state.
func splitmix64(state uint64) (out, next uint64) {
	next = state + 0x9e3779b97f4a7c15
	z := next
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31), next
}

// KV is the store shape FaultKV wraps: query.SnapshotStore's methods,
// generic so that the unit tests can wrap a plain map.
type KV[K comparable, V any] interface {
	Get(key K) (V, bool)
	Add(key K, val V)
	Evict(pred func(K) bool)
	Contains(key K) bool
	Len() int
	Keys() []K
}

// FaultKV wraps a KV store with injected faults on the read and write
// paths. Reads consult channel Channel+"/read": FaultError reads as a
// miss (a failed backend read must degrade to a recomputation, never
// an answer), FaultCorrupt first invokes OnCorrupt — which the test
// uses to scribble on the entry's backing bytes so the inner store's
// own decode/validation path handles the garbage — then performs the
// real read, and FaultLatency sleeps before reading. Writes consult
// Channel+"/write": FaultError drops the insert (the store contract
// allows declining), FaultLatency sleeps before inserting. Evict,
// Contains, and Len pass through untouched.
type FaultKV[K comparable, V any] struct {
	Inner KV[K, V]
	Inj   *Injector
	// Channel is the injector channel prefix; reads draw from
	// Channel+"/read", writes from Channel+"/write".
	Channel string
	// OnCorrupt, when set, is invoked with the key before a
	// FaultCorrupt read reaches the inner store.
	OnCorrupt func(K)
	// Latency is the FaultLatency delay; 0 means 1ms.
	Latency time.Duration
	// Sleep overrides time.Sleep for latency faults (tests).
	Sleep func(time.Duration)
}

func (s *FaultKV[K, V]) sleep() {
	d := s.Latency
	if d <= 0 {
		d = time.Millisecond
	}
	if s.Sleep != nil {
		s.Sleep(d)
		return
	}
	time.Sleep(d)
}

// Get implements KV with read faults as documented on FaultKV.
func (s *FaultKV[K, V]) Get(key K) (V, bool) {
	switch s.Inj.Decide(s.Channel + "/read") {
	case FaultError:
		var zero V
		return zero, false
	case FaultCorrupt:
		if s.OnCorrupt != nil {
			s.OnCorrupt(key)
		}
	case FaultLatency:
		s.sleep()
	}
	return s.Inner.Get(key)
}

// Add implements KV with write faults as documented on FaultKV.
func (s *FaultKV[K, V]) Add(key K, val V) {
	switch s.Inj.Decide(s.Channel + "/write") {
	case FaultError:
		return
	case FaultLatency:
		s.sleep()
	}
	s.Inner.Add(key, val)
}

// Evict passes through to the inner store.
func (s *FaultKV[K, V]) Evict(pred func(K) bool) { s.Inner.Evict(pred) }

// Contains passes through to the inner store.
func (s *FaultKV[K, V]) Contains(key K) bool { return s.Inner.Contains(key) }

// Len passes through to the inner store.
func (s *FaultKV[K, V]) Len() int { return s.Inner.Len() }

// Keys passes through to the inner store: enumeration (used for key
// handoff when shard ownership moves) is bookkeeping, not a faultable
// data path.
func (s *FaultKV[K, V]) Keys() []K { return s.Inner.Keys() }

// ErrInjectedRefused is the connection-level failure FaultTransport
// returns for FaultError decisions and while the peer is marked down.
var ErrInjectedRefused = errors.New("injected connection refused")

// ErrInjectedReset is the mid-body failure a FaultReset response body
// returns after its truncation point.
var ErrInjectedReset = errors.New("injected connection reset")

// FaultTransport wraps an http.RoundTripper with injected transport
// faults drawn from one injector channel, plus a kill switch that
// models a dead peer. Decisions per request:
//
//   - down (SetDown(true)) or FaultError: the dial is refused — the
//     request fails before any bytes flow.
//   - FaultHang: the slow-loris peer — the request blocks until its
//     context ends and returns the context's error.
//   - FaultLatency: the response is delayed by Latency, then proceeds.
//   - FaultReset: the real response arrives, but its body errors with
//     ErrInjectedReset after ResetAfter bytes — headers delivered,
//     body cut mid-stream.
//
// Safe for concurrent use.
type FaultTransport struct {
	// Inner performs the real request; nil means
	// http.DefaultTransport.
	Inner http.RoundTripper
	Inj   *Injector
	// Channel is the injector channel consulted once per request.
	Channel string
	// ResetAfter is how many body bytes a FaultReset delivers before
	// cutting; <= 0 means 8.
	ResetAfter int64
	// Latency is the FaultLatency delay; <= 0 means 1ms.
	Latency time.Duration

	down atomic.Bool
}

// SetDown toggles the kill switch: while down, every request is
// refused at dial time, like a peer whose process died.
func (t *FaultTransport) SetDown(down bool) { t.down.Store(down) }

// RoundTrip implements http.RoundTripper with the documented faults.
func (t *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	fault := FaultNone
	if t.Inj != nil {
		fault = t.Inj.Decide(t.Channel)
	}
	if t.down.Load() || fault == FaultError {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("%s %s: %w", req.Method, req.URL, ErrInjectedRefused)
	}
	if fault == FaultHang {
		if req.Body != nil {
			req.Body.Close()
		}
		<-req.Context().Done()
		return nil, req.Context().Err()
	}
	if fault == FaultLatency {
		d := t.Latency
		if d <= 0 {
			d = time.Millisecond
		}
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			if req.Body != nil {
				req.Body.Close()
			}
			return nil, req.Context().Err()
		}
	}
	inner := t.Inner
	if inner == nil {
		inner = http.DefaultTransport
	}
	resp, err := inner.RoundTrip(req)
	if err != nil || fault != FaultReset {
		return resp, err
	}
	limit := t.ResetAfter
	if limit <= 0 {
		limit = 8
	}
	resp.Body = &resetBody{inner: resp.Body, remaining: limit}
	return resp, nil
}

// resetBody delivers up to `remaining` bytes of the real body, then
// fails every read with ErrInjectedReset — a connection cut after
// headers, mid-body.
type resetBody struct {
	inner     io.ReadCloser
	remaining int64
}

func (b *resetBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, ErrInjectedReset
	}
	if int64(len(p)) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.inner.Read(p)
	b.remaining -= int64(n)
	if err == io.EOF {
		return n, io.EOF
	}
	if b.remaining <= 0 {
		// The cut lands before the real body ends: surface the reset
		// on this read so the caller sees a mid-stream failure, not a
		// clean short body.
		return n, ErrInjectedReset
	}
	return n, err
}

func (b *resetBody) Close() error { return b.inner.Close() }
