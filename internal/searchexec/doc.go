// Package searchexec supplies the engine's concurrency substrate: a
// machine-wide shared admission Pool that caps the summary work of
// concurrent requests, a thread-safe LRU cache for size-l summaries so
// repeated queries from many users skip regeneration, and the worker loop
// the keyword index is built with.
//
// # Invariants
//
//   - ForEach(n, workers, fn) runs fn(0..n-1) across at most the requested
//     workers with each index's result written to its own slot: output
//     order and content are identical at every pool size, including serial.
//     Its one caller is keyword.BuildSharded; a request runs on its own
//     goroutine and starts none.
//   - A nil *Pool is valid everywhere and runs work inline: single-tenant
//     callers never pay for admission control they didn't configure.
//   - Pool slots are held for the duration of the submitted function only;
//     callers must not block a slot on another slot (the engine serves
//     cache hits outside the pool for exactly this reason).
//   - The LRU is safe for concurrent Get/Peek/Put; Get promotes and counts
//     toward hit/miss stats, Peek does neither (it exists so post-wait
//     re-probes stay stat-neutral). Hit/miss counters are monotonic.
//   - Cached values are shared, not copied: callers must treat anything
//     they Get as read-only.
package searchexec
