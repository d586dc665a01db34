// Package tenancy turns the single-engine library into a multi-tenant
// search substrate: a registry owns many named (DB, Engine, Index) triples
// in one tenant table, every tenant's summary work is bounded by one shared
// searchexec pool, and concurrent identical requests to the same tenant are
// batched through a per-tenant single-flight so a burst of the same hot
// query costs one computation. cmd/ossrv serves this registry over HTTP.
//
// # Invariants
//
//   - One table under one lock: a name's whole lifecycle — live tenant,
//     pending spec, in-flight recovery or creation, released mark — is one
//     entry of one map behind one RWMutex; Get takes only the read lock.
//   - No recoverer and no durable I/O under that lock: each path decides
//     under it, then calls the Recoverer, Durability or Attachment.
//   - The entry owns the durable attachment its recovery returned: the
//     registry alone snapshots and closes a tenant's WAL — on release,
//     forget, rollback and shutdown.
//   - One request struct, sizelos.QueryRequest, runs from the URL parser
//     (queryFromURL) through Tenant.QueryPage to the engine; the
//     single-flight key is the engine's own QueryRequest.Fingerprint plus
//     the page (Limit, Cursor), never a second field list to keep in sync.
//   - Single-flight batching keys embed the engine's dependency-set epoch
//     (Engine.EpochFor) for the queried DS relation: a request issued
//     after a mutation can never join — and inherit the result of — a
//     flight computed against the pre-mutation state. Any future
//     coalescing layer must preserve this or mutations become eventually
//     visible instead of immediately visible. (A flight is a page; its
//     summaries bind to subject stamps, so most of it is still cached.)
//   - One constructor (NewRegistry) over one configuration (ServerConfig,
//     which ossrv's flags and -config file both lower onto).
//   - One envelope, one bearer check, one decoder, shared with the router:
//     every failure becomes HTTP in WriteError, both admin planes use
//     BearerAuth, and request bodies and the config file are decoded
//     alike.
//   - A write body is one JSON value of known keys and nothing after it:
//     whatever a 200 acknowledges was applied in full (DecodeBody).
//   - Each tenant's summary-cache entries are namespaced by its name
//     (QueryRequest.CacheScope, stamped by Tenant.QueryPage), so per-tenant
//     invalidation and quotas never bleed across tenants sharing one
//     engine process.
//   - The shared searchexec.Pool is the machine-wide concurrency budget:
//     every tenant's cold summary computations pass through it, so a noisy
//     tenant can queue behind the cap but never oversubscribe the host.
//   - The tenant name "tenants" is reserved (it is the registry's own
//     HTTP listing endpoint); Register rejects it.
//   - Deregistration is safe against in-flight queries: they finish against
//     the tenant they resolved (asserted under -race).
package tenancy
