package searchexec

import (
	"runtime"
	"sync/atomic"
	"time"
)

// PoolStats reports a shared pool's configuration and load; it is the pool
// section of a tenant's /stats document as it stands.
type PoolStats struct {
	// Size is the concurrency budget.
	Size int `json:"size"`
	// InFlight is the number of slots currently held.
	InFlight int `json:"in_flight"`
	// Waited counts acquisitions that had to block because the pool was
	// saturated — the back-pressure signal for capacity planning.
	Waited uint64 `json:"waited"`
	// WaitNanos is the cumulative time acquisitions spent blocked on a
	// saturated pool. Waited says how often callers queued; WaitNanos says
	// how badly — the admission layer's shed heuristics and the stats
	// endpoint both read it.
	WaitNanos uint64 `json:"wait_ns"`
}

// Pool is a shared concurrency budget for CPU-bound work spanning many
// independent callers — e.g. summary generation across every tenant of a
// multi-tenant service, where each request runs on its own goroutine. One
// Pool caps total in-flight work machine-wide: each unit of work holds one
// slot for its duration, and callers beyond the budget block until a slot
// frees. A nil *Pool is valid and imposes no limit.
type Pool struct {
	sem       chan struct{}
	waited    atomic.Uint64
	waitNanos atomic.Uint64
}

// NewPool creates a pool with the given number of slots; size <= 0 uses
// GOMAXPROCS, matching the CPU-bound workloads the pool is meant to bound.
func NewPool(size int) *Pool {
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, size)}
}

// Do runs fn while holding one pool slot, blocking first if the pool is
// saturated. Safe for any number of concurrent callers; fn must not call
// Do on the same pool (slots are not reentrant).
func (p *Pool) Do(fn func()) {
	if p == nil {
		fn()
		return
	}
	select {
	case p.sem <- struct{}{}:
	default:
		// Clock only the contended path: the fast path above stays a single
		// channel op.
		start := time.Now()
		p.waited.Add(1)
		p.sem <- struct{}{}
		p.waitNanos.Add(uint64(time.Since(start)))
	}
	defer func() { <-p.sem }()
	fn()
}

// Stats snapshots the pool's load counters. Stats on a nil pool reports an
// unlimited (zero-size) pool.
func (p *Pool) Stats() PoolStats {
	if p == nil {
		return PoolStats{}
	}
	return PoolStats{
		Size:      cap(p.sem),
		InFlight:  len(p.sem),
		Waited:    p.waited.Load(),
		WaitNanos: p.waitNanos.Load(),
	}
}
