// Package resilience is the fault-tolerance toolkit of the serving
// stack: a per-peer circuit breaker with half-open probing, a bounded
// admission gate that sheds load instead of queueing unboundedly,
// jittered exponential backoff for retries and health probes, the one
// peer exchange and breaker-gated retry loop every fleet call goes
// through.
//
// The package is deliberately free of repo-internal imports: it speaks
// net/http and context, so the query layer and cmd/serve can use it
// without an import cycle. Every time-dependent component takes an
// injectable clock and jitter source, so the state machines are
// unit-testable without sleeping.
package resilience

import (
	"math/rand"
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int

const (
	// Closed: requests flow; consecutive failures are counted.
	Closed BreakerState = iota
	// Open: requests are refused without dialing until the cooldown
	// elapses.
	Open
	// HalfOpen: the cooldown elapsed and exactly one trial request is
	// in flight; its outcome closes or re-opens the breaker.
	HalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig tunes a Breaker. The zero value gets usable defaults.
type BreakerConfig struct {
	// Threshold is the number of consecutive failures that trips a
	// closed breaker; <= 0 means 5.
	Threshold int
	// Cooldown is the base open duration before a half-open probe is
	// allowed; <= 0 means 1s. Repeated trips without an intervening
	// success double it (exponential backoff) up to MaxCooldown.
	Cooldown time.Duration
	// MaxCooldown caps the backoff doubling; <= 0 means 60s.
	MaxCooldown time.Duration
	// Jitter returns a value in [0, 1); nil means math/rand. The open
	// duration is drawn from [cooldown/2, cooldown) (equal jitter), so
	// a fleet of breakers tripped by one dead peer does not probe it in
	// lockstep.
	Jitter func() float64
	// Now is the clock; nil means time.Now. Tests inject a fake.
	Now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Second
	}
	if c.MaxCooldown <= 0 {
		c.MaxCooldown = 60 * time.Second
	}
	if c.Jitter == nil {
		c.Jitter = rand.Float64
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Breaker is a closed/open/half-open circuit breaker. It is passive:
// callers ask Allow before attempting the guarded operation and report
// the outcome with Success or Failure. An active prober (ProbeLoop)
// reports through the same two methods, so passive traffic and active
// probing drive one shared view of the peer. Safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu    sync.Mutex
	state BreakerState
	// fails counts consecutive failures while closed.
	fails int
	// trips counts consecutive trips without a success; it scales the
	// cooldown backoff.
	trips int
	// openUntil is when an open breaker permits its half-open probe.
	openUntil time.Time
}

// Allow reports whether the guarded operation may be attempted now.
// While open it returns false without side effects until the cooldown
// elapses; the first Allow after that claims the single half-open
// probe slot (subsequent Allows return false until the probe reports).
// The caller that receives true from a half-open claim must report
// Success or Failure, or the breaker stays half-open until another
// cooldown elapses — so a crashed prober degrades to a delay, not a
// deadlock: Allow grants a fresh probe once openUntil passes again.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.cfg.Now().Before(b.openUntil) {
			return false
		}
		b.state = HalfOpen
		// Re-arm the probe deadline: if this probe never reports, the
		// next Allow after a further cooldown gets a fresh claim.
		b.openUntil = b.cfg.Now().Add(b.cooldown())
		return true
	case HalfOpen:
		if b.cfg.Now().Before(b.openUntil) {
			return false
		}
		b.openUntil = b.cfg.Now().Add(b.cooldown())
		return true
	}
	return false
}

// Success reports a successful guarded operation: the breaker closes
// and all failure history resets, whatever state it was in.
func (b *Breaker) Success() {
	b.mu.Lock()
	b.state = Closed
	b.fails = 0
	b.trips = 0
	b.mu.Unlock()
}

// Failure reports a failed guarded operation. A closed breaker trips
// once Threshold consecutive failures accumulate; a half-open probe
// failure re-opens immediately with a doubled cooldown.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.fails++
		if b.fails >= b.cfg.Threshold {
			b.trip()
		}
	case HalfOpen:
		b.trip()
	case Open:
		// Already open (e.g. a concurrent attempt that was in flight
		// when the breaker tripped): nothing to count.
	}
}

// trip opens the breaker with an equal-jittered, exponentially
// backed-off cooldown. Caller holds mu.
func (b *Breaker) trip() {
	b.state = Open
	b.fails = 0
	b.trips++
	b.openUntil = b.cfg.Now().Add(b.cooldown())
}

// cooldown returns the jittered open duration for the current trip
// count. Caller holds mu.
func (b *Breaker) cooldown() time.Duration {
	d := b.cfg.Cooldown
	for i := 1; i < b.trips && d < b.cfg.MaxCooldown; i++ {
		d *= 2
	}
	if d > b.cfg.MaxCooldown {
		d = b.cfg.MaxCooldown
	}
	// Equal jitter: [d/2, d).
	return d/2 + time.Duration(b.cfg.Jitter()*float64(d/2))
}

// State reports the breaker's current position, advancing Open to the
// caller-visible truth (an expired cooldown still reads Open until an
// Allow claims the probe; that is the real gating behavior).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// BreakerSet is a lazily populated collection of breakers keyed by
// name (peer URL, shard id). All share one configuration. Safe for
// concurrent use.
type BreakerSet struct {
	cfg BreakerConfig

	mu sync.Mutex
	m  map[string]*Breaker
}

// NewBreakerSet returns an empty set; For creates breakers on demand.
func NewBreakerSet(cfg BreakerConfig) *BreakerSet {
	return &BreakerSet{cfg: cfg.withDefaults(), m: make(map[string]*Breaker)}
}

// For returns the named breaker, creating a closed one on first use.
func (s *BreakerSet) For(name string) *Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[name]
	if !ok {
		b = &Breaker{cfg: s.cfg}
		s.m[name] = b
	}
	return b
}

// States snapshots every known breaker's state, for health reporting.
func (s *BreakerSet) States() map[string]BreakerState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]BreakerState, len(s.m))
	for name, b := range s.m {
		out[name] = b.State()
	}
	return out
}
