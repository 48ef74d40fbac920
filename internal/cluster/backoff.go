package cluster

import (
	"math/rand"
	"sync"
	"time"
)

// Backoff produces capped exponential retry delays with seeded jitter.
// Jitter is what keeps a partitioned fleet from reconnecting in
// thundering-herd lockstep: every worker (and every triagectl client)
// seeds its own stream, so the same outage produces a spread of retry
// schedules instead of a synchronized stampede — while any single
// schedule stays reproducible from its seed. It is safe for concurrent
// use.
type Backoff struct {
	mu   sync.Mutex
	rng  *rand.Rand
	base time.Duration
	cap  time.Duration
}

// NewBackoff builds a policy: delay(attempt) = base·2^attempt, capped,
// then jittered ±25%.
func NewBackoff(seed int64, base, cap time.Duration) *Backoff {
	if base <= 0 {
		base = 250 * time.Millisecond
	}
	if cap < base {
		cap = 32 * base
	}
	return &Backoff{rng: rand.New(rand.NewSource(seed)), base: base, cap: cap}
}

// Delay returns the jittered delay for the given attempt (0-based).
func (b *Backoff) Delay(attempt int) time.Duration {
	d := b.base
	for i := 0; i < attempt && d < b.cap; i++ {
		d *= 2
	}
	if d > b.cap {
		d = b.cap
	}
	return b.Jitter(d, 0.25)
}

// Jitter spreads d uniformly across [d·(1-frac), d·(1+frac)).
func (b *Backoff) Jitter(d time.Duration, frac float64) time.Duration {
	b.mu.Lock()
	u := b.rng.Float64()
	b.mu.Unlock()
	scale := 1 - frac + 2*frac*u
	return time.Duration(float64(d) * scale)
}
