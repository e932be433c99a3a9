package tenant

import (
	"math"
	"sync"
	"time"
)

// bucket is a token bucket refilled on demand from elapsed time: no
// background goroutine, no timer — each take folds the refill owed since
// the previous observation into the balance, so an idle bucket costs
// nothing and the admission path never waits. Callers supply the clock
// (time.Now at the HTTP layer, a fake in tests), which also keeps the
// package free of wall-clock reads of its own.
type bucket struct {
	mu     sync.Mutex
	rate   float64   // guarded by mu
	burst  float64   // guarded by mu
	tokens float64   // guarded by mu
	last   time.Time // guarded by mu
}

// newBucket starts full: a freshly admitted tenant gets its whole burst.
func newBucket(rate float64, burst int, now time.Time) *bucket {
	b := float64(normalizeBurst(rate, burst))
	return &bucket{rate: rate, burst: b, tokens: b, last: now}
}

// normalizeBurst applies the Tenant.Burst default: ceil(rate), minimum 1.
func normalizeBurst(rate float64, burst int) int {
	if burst > 0 {
		return burst
	}
	if b := int(math.Ceil(rate)); b > 1 {
		return b
	}
	return 1
}

// take spends one token. When the bucket is dry it returns ok=false and
// how long until the refill mints the next whole token — the raw input to
// the HTTP layer's Retry-After clamp. A rate of 0 admits unconditionally.
func (b *bucket) take(now time.Time) (ok bool, wait time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.rate <= 0 {
		return true, 0
	}
	if now.After(b.last) {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
}

// reconfigure applies a reloaded rate and burst while keeping the current
// fill — a reload must not hand every tenant a fresh burst for free, and
// must not zero out budget a tenant has legitimately saved up (beyond
// clamping to the new capacity).
func (b *bucket) reconfigure(rate float64, burst int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.rate = rate
	b.burst = float64(normalizeBurst(rate, burst))
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}
