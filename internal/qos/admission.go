package qos

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Sentinel causes for QoS refusals. HTTP maps ErrRateLimited to 429 and
// ErrShed/ErrDeadline to 503, all with Retry-After.
var (
	// ErrRateLimited reports an exhausted token bucket.
	ErrRateLimited = errors.New("qos: rate limit exceeded")
	// ErrShed reports a fail-fast refusal: the admission queue's observed
	// wait already exceeds the request's latency budget, so queuing it
	// would only burn a slot on work doomed to time out.
	ErrShed = errors.New("qos: overloaded, request shed")
	// ErrDeadline reports a request whose deadline expired while it was
	// queued for admission.
	ErrDeadline = errors.New("qos: admission deadline expired while queued")
)

// DelayError wraps one of the sentinel causes with the backoff hint the
// service forwards as Retry-After.
type DelayError struct {
	Err        error
	RetryAfter time.Duration
}

func (e *DelayError) Error() string {
	return fmt.Sprintf("%v (retry after %s)", e.Err, e.RetryAfter)
}

func (e *DelayError) Unwrap() error { return e.Err }

// AdmissionStats snapshots an admission controller.
type AdmissionStats struct {
	// MaxInFlight is the concurrency bound; 0 means unbounded.
	MaxInFlight int `json:"max_in_flight"`
	// InFlight is the number of admitted, unreleased units of work.
	InFlight int `json:"in_flight"`
	// QueueDepth is the number of callers currently parked waiting for a
	// slot.
	QueueDepth int `json:"queue_depth"`
	// Admitted, Shed, and Expired count Admit outcomes since creation.
	Admitted uint64 `json:"admitted"`
	Shed     uint64 `json:"shed"`
	Expired  uint64 `json:"expired"`
	// EstimatedWaitMs is the EWMA of recently observed queue waits, in
	// milliseconds to the microsecond — the signal the shed decision
	// compares against a request's budget.
	EstimatedWaitMs float64 `json:"estimated_wait_ms"`
}

// Admission bounds a tenant's in-flight work. Callers past the bound wait
// FIFO (blocked channel senders park in arrival order) with a deadline;
// when the observed queue wait already exceeds a request's budget the
// request is shed immediately. A nil *Admission admits everything.
type Admission struct {
	sem     chan struct{}
	maxWait time.Duration

	mu       sync.Mutex
	waitEWMA float64 // nanoseconds

	depth    atomic.Int64
	admitted atomic.Uint64
	shed     atomic.Uint64
	expired  atomic.Uint64
}

// NewAdmission creates a controller bounding in-flight work to maxInFlight
// (<= 0: unbounded). maxWait caps how long any caller may queue regardless
// of its budget (<= 0: no cap beyond the request budget).
func NewAdmission(maxInFlight int, maxWait time.Duration) *Admission {
	a := &Admission{maxWait: maxWait}
	if maxInFlight > 0 {
		a.sem = make(chan struct{}, maxInFlight)
	}
	return a
}

// Admit acquires one in-flight slot, queuing FIFO up to the smaller of
// budget and the controller's MaxQueueWait (whichever is positive; both
// zero waits unboundedly). On success the returned release frees the slot
// and must be called exactly once. On refusal release is nil and the
// error wraps ErrShed (failed fast, never queued) or ErrDeadline (queued,
// then expired), each inside a DelayError carrying the backoff hint.
func (a *Admission) Admit(budget time.Duration) (release func(), err error) {
	if a == nil || a.sem == nil {
		if a != nil {
			a.admitted.Add(1)
		}
		return func() {}, nil
	}
	// Uncontended fast path: no clock read, no estimator update.
	select {
	case a.sem <- struct{}{}:
		a.admitted.Add(1)
		return a.release, nil
	default:
	}
	limit := a.maxWait
	if budget > 0 && (limit <= 0 || budget < limit) {
		limit = budget
	}
	if limit > 0 {
		if est := a.estimatedWait(); est > limit {
			a.shed.Add(1)
			return nil, &DelayError{Err: ErrShed, RetryAfter: est}
		}
	}
	a.depth.Add(1)
	defer a.depth.Add(-1)
	start := time.Now()
	if limit <= 0 {
		a.sem <- struct{}{}
		a.noteWait(time.Since(start))
		a.admitted.Add(1)
		return a.release, nil
	}
	timer := time.NewTimer(limit)
	defer timer.Stop()
	select {
	case a.sem <- struct{}{}:
		a.noteWait(time.Since(start))
		a.admitted.Add(1)
		return a.release, nil
	case <-timer.C:
		// Feed the timeout into the estimator too: a queue so slow that
		// deadlines expire must raise the shed bar for the next arrivals.
		a.noteWait(time.Since(start))
		a.expired.Add(1)
		return nil, &DelayError{Err: ErrDeadline, RetryAfter: a.estimatedWait()}
	}
}

func (a *Admission) release() { <-a.sem }

// noteWait folds one observed queue wait into the EWMA.
func (a *Admission) noteWait(w time.Duration) {
	a.mu.Lock()
	a.waitEWMA = 0.8*a.waitEWMA + 0.2*float64(w)
	a.mu.Unlock()
}

func (a *Admission) estimatedWait() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return time.Duration(a.waitEWMA)
}

// Stats snapshots the controller. Stats on a nil controller reports an
// unbounded one.
func (a *Admission) Stats() AdmissionStats {
	if a == nil {
		return AdmissionStats{}
	}
	s := AdmissionStats{
		QueueDepth:      int(a.depth.Load()),
		Admitted:        a.admitted.Load(),
		Shed:            a.shed.Load(),
		Expired:         a.expired.Load(),
		EstimatedWaitMs: float64(a.estimatedWait().Microseconds()) / 1e3,
	}
	if a.sem != nil {
		s.MaxInFlight = cap(a.sem)
		s.InFlight = len(a.sem)
	}
	return s
}
