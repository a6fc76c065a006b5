package resilience

import (
	"context"
	"math/rand"
	"time"
)

// ProbeOptions tunes an active health-probe loop. The zero value gets
// usable defaults.
type ProbeOptions struct {
	// Interval is the probe period while the peer is healthy; <= 0
	// means 5s.
	Interval time.Duration
	// MaxInterval caps the exponential backoff while the peer is down;
	// <= 0 means 60s.
	MaxInterval time.Duration
	// Jitter returns a value in [0, 1); nil means math/rand.
	Jitter func() float64
}

func (o ProbeOptions) withDefaults() ProbeOptions {
	if o.Interval <= 0 {
		o.Interval = 5 * time.Second
	}
	if o.MaxInterval <= 0 {
		o.MaxInterval = 60 * time.Second
	}
	if o.Jitter == nil {
		o.Jitter = rand.Float64
	}
	return o
}

// ProbeLoop actively probes a peer and reports each outcome to its
// breaker, until ctx ends. While the peer answers, it probes every
// Interval; after a failure the delay doubles (with equal jitter) up
// to MaxInterval, and a success snaps it back. Reporting through the
// breaker means a dead peer is discovered — and its recovery noticed —
// without any request paying a dial timeout: the passive traffic path
// consults the same breaker.
func ProbeLoop(ctx context.Context, b *Breaker, probe func(context.Context) error, opts ProbeOptions) {
	opts = opts.withDefaults()
	delay := opts.Interval
	for {
		if err := sleepCtx(ctx, delay/2+time.Duration(opts.Jitter()*float64(delay/2))); err != nil {
			return
		}
		if err := probe(ctx); err != nil {
			b.Failure()
			if delay < opts.MaxInterval {
				delay *= 2
				if delay > opts.MaxInterval {
					delay = opts.MaxInterval
				}
			}
			continue
		}
		b.Success()
		delay = opts.Interval
	}
}
