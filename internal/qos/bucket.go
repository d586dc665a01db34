package qos

import (
	"sync"
	"time"
)

// BucketStats snapshots a token bucket's configuration and counters.
type BucketStats struct {
	// Rate is the refill rate in tokens per second; 0 means unlimited.
	Rate float64 `json:"rate"`
	// Burst is the bucket capacity.
	Burst float64 `json:"burst"`
	// Tokens is the balance at the snapshot's clock reading.
	Tokens float64 `json:"tokens"`
	// Allowed and Throttled count Allow outcomes since creation.
	Allowed   uint64 `json:"allowed"`
	Throttled uint64 `json:"throttled"`
}

// Bucket is a continuous-refill token bucket. The zero value is not
// usable; construct with NewBucket. A nil *Bucket allows everything.
type Bucket struct {
	mu        sync.Mutex
	rate      float64 // tokens per second; <= 0: unlimited
	burst     float64
	tokens    float64
	last      time.Time
	now       func() time.Time
	allowed   uint64
	throttled uint64
}

// NewBucket creates a bucket refilling at rate tokens/second with the
// given burst capacity. rate <= 0 means unlimited (Allow never refuses);
// burst <= 0 defaults to max(1, rate) so a configured rate always admits
// at least one request at a time.
func NewBucket(rate, burst float64) *Bucket {
	return newBucketAt(rate, burst, time.Now)
}

// newBucketAt is NewBucket with an injected clock — the seam the refill
// determinism tests drive.
func newBucketAt(rate, burst float64, now func() time.Time) *Bucket {
	if burst <= 0 {
		burst = rate
		if burst < 1 {
			burst = 1
		}
	}
	return &Bucket{rate: rate, burst: burst, tokens: burst, last: now(), now: now}
}

// Allow spends one token if available. When it refuses, retryAfter is the
// time until a full token will have refilled at the bucket's current
// rate — the Retry-After hint handed to throttled clients.
func (b *Bucket) Allow() (ok bool, retryAfter time.Duration) {
	if b == nil {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.rate <= 0 {
		b.allowed++
		return true, 0
	}
	now := b.now()
	if elapsed := now.Sub(b.last); elapsed > 0 {
		b.tokens += elapsed.Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		b.allowed++
		return true, 0
	}
	b.throttled++
	return false, time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
}

// Stats snapshots the bucket, refilling first so Tokens reflects the
// current clock reading. Stats on a nil bucket reports an unlimited one.
func (b *Bucket) Stats() BucketStats {
	if b == nil {
		return BucketStats{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.rate > 0 {
		now := b.now()
		if elapsed := now.Sub(b.last); elapsed > 0 {
			b.tokens += elapsed.Seconds() * b.rate
			if b.tokens > b.burst {
				b.tokens = b.burst
			}
		}
		b.last = now
	}
	return BucketStats{
		Rate: b.rate, Burst: b.burst, Tokens: b.tokens,
		Allowed: b.allowed, Throttled: b.throttled,
	}
}
