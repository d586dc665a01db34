// Package router is the thin scale-out tier in front of an ossrv fleet: it
// owns NO tenant state, only a consistent-hash ring (internal/placement)
// over the healthy fleet members plus explicit per-tenant pins, and proxies
// every /v1 request to the tenant's current owner. All nodes share one
// durable data dir, so placement is purely a routing decision — whichever
// node receives a tenant's first request adopts it from the shared
// manifest.
//
// Invariants the tier maintains:
//
//   - Single writer: at any moment at most one node serves a tenant. The
//     router is the only traffic source, the ring (plus pins) is the only
//     placement authority, and a handoff always releases the old owner's
//     WAL before the first request reaches the new one.
//   - Failover: a member that fails FailThreshold consecutive health
//     probes is evicted from the ring; its tenants rehash to the surviving
//     members and recover from the shared data dir on first touch. A
//     member that probes healthy again rejoins, and a rebalance releases
//     any tenant now living on a node the ring no longer points at.
//   - Migration: POST /router/migrate drains the tenant (new requests get
//     a retryable 503), waits out in-flight requests, releases the old
//     owner (final snapshot + WAL close), then atomically repins — the
//     next request recovers the tenant on the target. In-flight paging
//     cursors do not survive the move; resuming one yields the API's
//     usual 410.
//   - Ownership return: a node that released a tenant refuses to re-adopt
//     it on its own (split-brain protection). Whenever the router moves
//     ownership back to such a node — a dead pin's fall-back, a rebalance,
//     a round-trip migration — it explicitly re-arms adoption there
//     (POST /v1/{tenant}/adopt) before traffic arrives.
//   - One front door: errors, the /router/* bearer check and admin body
//     decoding are the node's own (tenancy.WriteError, BearerAuth,
//     DecodeBody), so every status means what it means on a node.
//
// The router talks to members in one way only: a member client of its own
// (client.go) that pools keep-alive connections per member and does each
// round trip on the handler's goroutine — request head written by hand,
// answer read with http.ReadResponse, a known-length body relayed in one
// write. Proxied requests, probes, the tenant-index fan-out and
// release/adopt all go through it. A client that leaves cancels the
// member's request; a pooled connection the member closed is retried
// once on a fresh dial for a GET or HEAD and never reused for a mutation.
//
// Every proxied response carries an X-Sizelos-Node header naming the
// member that served it — cmd/osload aggregates per-node throughput from
// it, and the equivalence tests assert placement stability with it.
// Failure semantics, the knob table, and the full failure matrix live in
// docs/SCALEOUT.md.
package router
