// Package qos enforces per-tenant quality of service for the multi-tenant
// search service: token-bucket rate limits, bounded-concurrency admission
// control, and latency-budget load shedding.
//
// Invariants the rest of the repo leans on:
//
//   - A Bucket refills continuously at Rate tokens/second up to Burst and
//     is deterministic under an injected clock: the same sequence of
//     Allow() calls at the same clock readings always yields the same
//     admit/deny decisions and the same Retry-After hints.
//
//   - An Admission admits at most MaxInFlight units of work; callers past
//     the bound queue FIFO (Go parks blocked channel senders in arrival
//     order) and are cut loose when their deadline — the smaller of the
//     request's latency budget and the controller's MaxQueueWait — expires
//     while still queued.
//
//   - Shedding is fail-fast: when the controller's observed queue wait
//     (an EWMA over recent admissions) already exceeds a request's budget,
//     Admit refuses immediately with ErrShed instead of queuing work that
//     is doomed to time out. A shed or throttled request never touches
//     the engine or the shared pool — it cannot poison work other
//     requests have in flight.
//
//   - Every admit is paired with exactly one release; after any sequence
//     of admits, timeouts, and sheds drains, InFlight and QueueDepth
//     return to zero and bucket tokens never exceed Burst (no token or
//     slot leak). The fairness and soak tests in internal/tenancy assert
//     this across full closed-loop runs.
//
//   - A nil *Limiter disables QoS entirely: every Allow/Admit succeeds
//     without synchronization, so an unconfigured service keeps its
//     pre-QoS behavior and cost.
//
// Limits merging: a per-tenant override field with the zero value
// inherits the registry-wide default; a negative rate, burst, in-flight
// bound, or duration means explicitly unlimited for that tenant.
package qos
