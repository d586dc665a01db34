// Package tenancy turns the single-engine library into a multi-tenant
// search substrate: a registry owns many named (DB, Engine, Index) triples
// in one tenant table, every tenant's summary work is bounded by one shared
// searchexec pool, and every page is served by the tenant's engine in one
// call. cmd/ossrv serves this registry over HTTP.
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
//     (queryFromURL, which also fills the wire defaults) through
//     Tenant.QueryPage to the engine, never a second field list to keep in
//     sync.
//   - A page is one Engine.QueryPage call under one read lock: the engine
//     validates the request, and a page never outlives the state it read,
//     so a request issued after a mutation sees the mutation. Concurrent
//     identical requests share work only through the summary cache, which
//     the engine re-probes after every pool wait.
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
