package resilience

import (
	"context"
	"errors"
	"math/rand"
	"time"
)

// RetryConfig tunes bounded retries with jittered exponential backoff.
// The zero value gets usable defaults.
type RetryConfig struct {
	// Attempts is the total number of tries (first try included);
	// <= 0 means 2.
	Attempts int
	// Base is the backoff before the first retry; <= 0 means 50ms.
	// Each further retry doubles it, capped at Max.
	Base time.Duration
	// Max caps the backoff; <= 0 means 2s.
	Max time.Duration
	// Jitter returns a value in [0, 1); nil means math/rand. The slept
	// delay is drawn from [d/2, d) so retriers desynchronize.
	Jitter func() float64
	// Sleep is the delay function; nil means a context-aware sleep.
	// Tests inject a recorder.
	Sleep func(context.Context, time.Duration) error
}

func (c RetryConfig) withDefaults() RetryConfig {
	if c.Attempts <= 0 {
		c.Attempts = 2
	}
	if c.Base <= 0 {
		c.Base = 50 * time.Millisecond
	}
	if c.Max <= 0 {
		c.Max = 2 * time.Second
	}
	if c.Jitter == nil {
		c.Jitter = rand.Float64
	}
	if c.Sleep == nil {
		c.Sleep = sleepCtx
	}
	return c
}

// Backoff returns the jittered delay before retry number `retry`
// (1-based: the delay slept after the first failure is Backoff(1)).
func (c RetryConfig) Backoff(retry int) time.Duration {
	c = c.withDefaults()
	d := c.Base
	for i := 1; i < retry && d < c.Max; i++ {
		d *= 2
	}
	if d > c.Max {
		d = c.Max
	}
	return d/2 + time.Duration(c.Jitter()*float64(d/2))
}

// ErrBreakerOpen is Do's answer when the breaker refused the first
// attempt: nothing was dialed.
var ErrBreakerOpen = errors.New("resilience: breaker open")

// Do runs op up to cfg.Attempts times, sleeping a jittered exponential
// backoff between tries, until op succeeds, the attempts run out (the
// last error is returned), or ctx ends (its error is returned). Only
// use Do for idempotent operations — it offers no dedup.
//
// A non-nil breaker gates every attempt: Do asks it before the first
// (a refusal returns ErrBreakerOpen) and before each retry's backoff,
// and reports every outcome to it. Once it refuses, Do returns the
// last error without dialing or sleeping again, so a half-open trial
// gets exactly one attempt: its failure re-opens the breaker.
func Do(ctx context.Context, cfg RetryConfig, b *Breaker, op func() error) error {
	cfg = cfg.withDefaults()
	if b != nil && !b.Allow() {
		return ErrBreakerOpen
	}
	for attempt := 1; ; attempt++ {
		err := op()
		if err == nil {
			if b != nil {
				b.Success()
			}
			return nil
		}
		if b != nil {
			b.Failure()
		}
		if attempt >= cfg.Attempts || (b != nil && !b.Allow()) {
			return err
		}
		if serr := cfg.Sleep(ctx, cfg.Backoff(attempt)); serr != nil {
			return serr
		}
	}
}

// sleepCtx sleeps for d or until ctx ends, returning ctx's error in
// the latter case.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
