package tenancy

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"sizelos"
	"sizelos/internal/durable"
	"sizelos/internal/qos"
	"sizelos/internal/searchexec"
)

var (
	// ErrTenantExists reports a dynamic registration naming a tenant that
	// is already live, pending recovery, or being created concurrently.
	ErrTenantExists = errors.New("tenancy: tenant already registered")
	// ErrDurabilityFailed reports a registration that was rolled back
	// because it could not be recorded durably.
	ErrDurabilityFailed = errors.New("tenancy: registration could not be made durable")
)

// numStripes is the lock-striping width of the registry map. 16 stripes
// keep cross-tenant contention negligible at far more tenants than one
// machine serves while costing a few hundred bytes.
const numStripes = 16

// Tenant is one registered (DB, Engine, Index) triple plus its service
// state. Fields are immutable after registration; query methods are safe
// for concurrent use.
type Tenant struct {
	Name        string
	Engine      *sizelos.Engine
	CacheBudget int

	pool   *searchexec.Pool
	flight flightGroup
	// What this tenant's batches did to the summary cache, for /stats: how
	// many stamped subjects only, how many invalidated a whole DS relation,
	// and the subjects stamped (sizelos.MutationResult.Footprint).
	footprintBatches, wideBatches, subjectsStamped atomic.Uint64
}

// Registry maps tenant names to tenants behind striped locks and owns the
// shared summary pool. The zero value is not usable; construct with
// NewRegistry.
type Registry struct {
	pool *searchexec.Pool
	// qos holds the per-tenant limiters when the config asks for any; nil
	// imposes no limits and keeps the middleware out of the hot path.
	qos *qos.Set
	// adminToken, when non-empty, locks the write plane.
	adminToken string
	// defaultCache is the cache budget applied to registrations that do
	// not name their own.
	defaultCache int
	// recoverer builds — or, over a durability tier, recovers — the engine
	// of a pending tenant and of one registered over HTTP (POST
	// /v1/tenants); durability persists lifecycle events and, on a Resolve
	// miss, finds tenants another fleet node recorded. Both are fixed at
	// construction.
	recoverer  Recoverer
	durability Durability
	stripes    [numStripes]struct {
		mu      sync.RWMutex
		tenants map[string]*Tenant
	}

	// pending holds tenants known from the durable manifest but not yet
	// recovered; Resolve materializes them lazily, single-flight per name.
	pendMu     sync.Mutex
	pending    map[string]TenantSpec
	recovering map[string]*recoverCall
	// released marks names handed off to another owner (Release). The
	// miss-path lookup never re-adopts a released name: a stray request on
	// the old owner would otherwise re-open a WAL the new owner is
	// appending to. Deliberate re-introduction (AddPending,
	// RegisterDynamic) clears the mark.
	released map[string]bool
}

// TenantSpec is a tenant's recipe: the manifest entry of the durable tier,
// and what Register, AddPending and RegisterDynamic take.
type TenantSpec = durable.TenantSpec

// Recoverer builds a ready-to-serve engine for spec — for a durable
// deployment, newest snapshot + WAL-tail replay with the WAL left attached
// as the engine's mutation log; for a fresh tenant, a from-scratch build.
// Called outside every registry lock (engine builds take seconds) and at
// most once concurrently per tenant name.
type Recoverer func(spec TenantSpec) (*sizelos.Engine, error)

// Durability persists tenant lifecycle events so a restarted service knows
// which tenants to recover. Implementations must be safe for concurrent
// use.
type Durability interface {
	// RecordTenant durably records that spec is registered (upsert).
	RecordTenant(spec TenantSpec) error
	// ForgetTenant removes the tenant's durable record and on-disk state,
	// releasing any open log handles first. Removing an unrecorded tenant
	// is not an error.
	ForgetTenant(name string) error
	// ReleaseTenant closes any open durable handles (WAL) the recoverer
	// left attached for a tenant whose registration was rolled back,
	// WITHOUT touching its durable state. Releasing a tenant with no open
	// handles is a no-op.
	ReleaseTenant(name string)
	// LookupPending resolves a tenant name the registry has never heard of
	// to its durable spec — a tenant another fleet node recorded in a
	// shared store, or one migrated here — or reports that none exists. It
	// runs outside every registry lock on the Resolve miss path (typically
	// a manifest re-read), so it may do I/O.
	LookupPending(name string) (TenantSpec, bool)
}

// NewRegistry builds the registry cfg describes: a summary pool of
// cfg.PoolSize slots shared by every tenant (<= 0: GOMAXPROCS),
// cfg.CacheBudget as the cache of registrations that name none,
// cfg.AdminToken on the write plane, and per-tenant QoS when cfg.QoS asks
// for any limit. rec builds the engine of a pending tenant and of one
// registered over HTTP (nil: neither is possible). d persists the tenant
// lifecycle; nil keeps the registry in memory.
func NewRegistry(cfg ServerConfig, rec Recoverer, d Durability) *Registry {
	r := &Registry{
		pool:         searchexec.NewPool(cfg.PoolSize),
		adminToken:   cfg.AdminToken,
		defaultCache: max(cfg.CacheBudget, 0),
		recoverer:    rec,
		durability:   d,
		pending:      make(map[string]TenantSpec),
		recovering:   make(map[string]*recoverCall),
		released:     make(map[string]bool),
	}
	// A zero QoS config keeps the QoS layer entirely out of the request path.
	if cfg.QoS.Default != (qos.Limits{}) || len(cfg.QoS.Tenants) > 0 {
		r.qos = qos.NewSet(cfg.QoS)
	}
	for i := range r.stripes {
		r.stripes[i].tenants = make(map[string]*Tenant)
	}
	return r
}

// AddPending declares a tenant that exists durably but is not yet loaded:
// it shows up in Names and is recovered on first Resolve. Startup calls
// this for every manifest entry instead of paying every tenant's recovery
// before serving.
func (r *Registry) AddPending(spec TenantSpec) error {
	if !validName(spec.Name) {
		return fmt.Errorf("tenancy: invalid tenant name %q (want [A-Za-z0-9._-]+)", spec.Name)
	}
	r.pendMu.Lock()
	defer r.pendMu.Unlock()
	r.pending[spec.Name] = spec
	delete(r.released, spec.Name)
	return nil
}

// recoverCall is one in-flight lazy recovery every concurrent Resolve for
// the same name waits on.
type recoverCall struct {
	done chan struct{}
	t    *Tenant
	err  error
}

// Resolve returns the named tenant, lazily recovering it if it is pending.
// found=false means the registry has never heard of the name; a non-nil
// error means the tenant exists durably but could not be recovered (the
// caller should surface a server error, not a 404). Concurrent Resolves of
// one pending tenant share a single recovery. With a Durability, a miss
// additionally consults Durability.LookupPending and adopts the spec it
// returns — the first-touch path for tenants recorded in a shared store by
// another fleet node or migrated to this one.
func (r *Registry) Resolve(name string) (t *Tenant, found bool, err error) {
	t, found, err = r.resolveOnce(name)
	if found || err != nil || r.durability == nil {
		return t, found, err
	}
	r.pendMu.Lock()
	handedOff := r.released[name]
	r.pendMu.Unlock()
	if handedOff {
		return nil, false, nil
	}
	spec, ok := r.durability.LookupPending(name)
	if !ok || spec.Name != name {
		return nil, false, nil
	}
	r.adoptPending(spec)
	return r.resolveOnce(name)
}

// adoptPending inserts a looked-up spec into the pending set unless the
// name materialized (live, pending, or mid-creation) while the lookup ran
// — the race loser must not clobber a live tenant's recovery state.
func (r *Registry) adoptPending(spec TenantSpec) {
	r.pendMu.Lock()
	defer r.pendMu.Unlock()
	if r.released[spec.Name] || r.knownLocked(spec.Name) {
		return
	}
	r.pending[spec.Name] = spec
}

// resolveOnce is Resolve without the miss-path lookup: live lookup, then
// single-flight lazy recovery of a pending entry.
func (r *Registry) resolveOnce(name string) (t *Tenant, found bool, err error) {
	if t, ok := r.Get(name); ok {
		return t, true, nil
	}
	r.pendMu.Lock()
	spec, ok := r.pending[name]
	if !ok {
		r.pendMu.Unlock()
		// A racing Resolve may have just finished materializing it.
		if t, ok := r.Get(name); ok {
			return t, true, nil
		}
		return nil, false, nil
	}
	if c, running := r.recovering[name]; running {
		r.pendMu.Unlock()
		<-c.done
		return c.t, true, c.err
	}
	c := r.claimLocked(name)
	r.pendMu.Unlock()
	defer r.settle(name, c)

	// Recovery runs outside every lock; only this goroutine works on name.
	if r.recoverer == nil {
		c.err = fmt.Errorf("tenancy: tenant %q is pending but no recoverer is configured", name)
		return nil, true, c.err
	}
	eng, err := r.recoverer(spec)
	if err != nil {
		c.err = fmt.Errorf("tenancy: recover tenant %q: %w", name, err)
		return nil, true, c.err
	}
	c.t, c.err = r.registerRecovered(spec, eng)
	return c.t, true, c.err
}

// claimLocked marks name mid-flight — a lazy recovery or a dynamic
// creation — so no second flight of it starts: Resolve waits on the
// returned call, RegisterDynamic and adoptPending back off, and Deregister
// and Release drain it. The caller holds pendMu and ends the flight with
// settle.
func (r *Registry) claimLocked(name string) *recoverCall {
	c := &recoverCall{done: make(chan struct{})}
	r.recovering[name] = c
	return c
}

// settle ends name's flight with c's outcome: a tenant it made live leaves
// the pending set, and every waiter wakes — with an error, not a nil
// tenant, should the flight have panicked.
func (r *Registry) settle(name string, c *recoverCall) {
	if c.t == nil && c.err == nil {
		c.err = fmt.Errorf("tenancy: flight for tenant %q panicked", name)
	}
	r.pendMu.Lock()
	if c.t != nil {
		delete(r.pending, name)
	}
	delete(r.recovering, name)
	r.pendMu.Unlock()
	close(c.done)
}

// registerRecovered registers an engine the recoverer built. The recoverer
// may have attached durable handles (the WAL), so a failed registration
// releases them rather than leak them open.
func (r *Registry) registerRecovered(spec TenantSpec, eng *sizelos.Engine) (*Tenant, error) {
	t, err := r.Register(spec, eng)
	if err != nil && r.durability != nil {
		r.durability.ReleaseTenant(spec.Name)
	}
	return t, err
}

// RegisterDynamic creates a brand-new tenant through the recoverer and, if
// a Durability is installed, records it durably before returning. The name
// is claimed in the same per-name single-flight lazy recovery uses, so a
// concurrent POST or first-touch Resolve of the same name can never both
// run the recoverer — two recoveries would open two append handles on one
// WAL and interleave frames. Names that are live, pending recovery, recorded
// in the durable store (Durability.LookupPending: in a fleet, another
// node's tenant) or mid-creation fail with ErrTenantExists — their durable
// state exists, and recovering it under a new spec would serve the old
// tenant's data. A failed durable record rolls the registration back and
// fails with ErrDurabilityFailed.
func (r *Registry) RegisterDynamic(spec TenantSpec) (*Tenant, error) {
	if r.recoverer == nil {
		return nil, fmt.Errorf("tenancy: dynamic registration needs a recoverer")
	}
	name := spec.Name
	if !validName(name) {
		return nil, fmt.Errorf("tenancy: invalid tenant name %q (want [A-Za-z0-9._-]+)", name)
	}
	// Outside every lock, as Resolve asks: the lookup may do I/O.
	if r.durability != nil {
		if _, recorded := r.durability.LookupPending(name); recorded {
			return nil, fmt.Errorf("%w: %q is recorded in the durable store", ErrTenantExists, name)
		}
	}
	r.pendMu.Lock()
	if _, pend := r.pending[name]; pend {
		r.pendMu.Unlock()
		return nil, fmt.Errorf("%w: %q is pending recovery", ErrTenantExists, name)
	}
	if _, creating := r.recovering[name]; creating {
		r.pendMu.Unlock()
		return nil, fmt.Errorf("%w: %q is being created concurrently", ErrTenantExists, name)
	}
	if _, live := r.Get(name); live {
		r.pendMu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrTenantExists, name)
	}
	c := r.claimLocked(name)
	// A deliberate re-registration lifts the handoff mark: this node is
	// the tenant's owner again.
	delete(r.released, name)
	r.pendMu.Unlock()
	defer r.settle(name, c)

	eng, err := r.recoverer(spec)
	if err != nil {
		c.err = err
		return nil, err
	}
	t, err := r.registerRecovered(spec, eng)
	if err != nil {
		c.err = fmt.Errorf("%w: %q", ErrTenantExists, name)
		return nil, c.err
	}
	if r.durability != nil {
		// Only a durably recorded registration is acknowledged: a crash
		// after success must bring the tenant back. Roll back inline rather
		// than via Deregister — Deregister waits on in-flight creations,
		// and this goroutine still holds the name's claim.
		if err := r.durability.RecordTenant(spec); err != nil {
			s := r.stripe(name)
			s.mu.Lock()
			delete(s.tenants, name)
			s.mu.Unlock()
			_ = r.durability.ForgetTenant(name)
			c.err = fmt.Errorf("%w: %v", ErrDurabilityFailed, err)
			return nil, c.err
		}
	}
	c.t = t
	return t, nil
}

// Pool exposes the shared summary pool, e.g. for load reporting.
func (r *Registry) Pool() *searchexec.Pool { return r.pool }

func (r *Registry) stripe(name string) *struct {
	mu      sync.RWMutex
	tenants map[string]*Tenant
} {
	h := fnv.New32a()
	h.Write([]byte(name))
	return &r.stripes[h.Sum32()%numStripes]
}

// validName keeps tenant names URL-path-safe: letters, digits, '.', '_',
// '-', excluding the path elements "." and ".." (ServeMux cleans those out
// of request paths, so such tenants could never be addressed) and the
// reserved word "tenants" (it names the collection endpoint /v1/tenants).
func validName(name string) bool {
	if name == "" || name == "." || name == ".." || name == "tenants" {
		return false
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// Register adds tenant spec.Name serving eng, which must be fully set up
// (G_DSs registered). Registration wires the shared pool and installs
// spec.Cache (0: the registry default) on an engine that has no cache
// yet: tenants sharing one engine share the first-installed budget, so a
// later registration never wipes a sibling's warm cache, while entries
// stay per-tenant (keys are scoped by name). Registering a live registry
// is safe while other tenants serve traffic.
func (r *Registry) Register(spec TenantSpec, eng *sizelos.Engine) (*Tenant, error) {
	name := spec.Name
	if !validName(name) {
		return nil, fmt.Errorf("tenancy: invalid tenant name %q (want [A-Za-z0-9._-]+)", name)
	}
	if eng == nil {
		return nil, fmt.Errorf("tenancy: tenant %q: nil engine", name)
	}
	budget := spec.Cache
	if budget == 0 {
		budget = r.defaultCache
	}
	t := &Tenant{
		Name:        name,
		Engine:      eng,
		CacheBudget: budget,
		pool:        r.pool,
	}
	s := r.stripe(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.tenants[name]; dup {
		// Fail before touching the engine: a duplicate Register (config
		// reload, retry) must not wipe the live tenant's warm cache.
		return nil, fmt.Errorf("tenancy: tenant %q already registered", name)
	}
	// Install the budget only on a cache-less engine: EnableSummaryCache
	// swaps in an empty LRU, so re-installing on an engine shared with an
	// already-live tenant would wipe that tenant's warm entries mid-traffic.
	if _, enabled := eng.SummaryCacheStats(); !enabled && budget > 0 {
		eng.EnableSummaryCache(budget)
	}
	s.tenants[name] = t
	return t, nil
}

// Get returns a tenant by name.
func (r *Registry) Get(name string) (*Tenant, bool) {
	s := r.stripe(name)
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tenants[name]
	return t, ok
}

// Deregister removes a tenant — live or still pending; in-flight queries
// on it finish normally. With a Durability installed, the tenant's durable
// record and state are removed too; the returned error reports a failure
// of that durable removal (the in-memory removal has already happened).
// A DELETE racing a first-touch recovery (or a concurrent creation) waits
// for that flight to settle and then removes its result too, so a
// successful DELETE never leaves the tenant serving from memory.
func (r *Registry) Deregister(name string) (bool, error) {
	if !r.remove(name) {
		return false, nil
	}
	if r.durability != nil {
		if err := r.durability.ForgetTenant(name); err != nil {
			return true, fmt.Errorf("tenancy: forget tenant %q: %w", name, err)
		}
	}
	return true, nil
}

// Release removes a tenant from serving — live or pending — WITHOUT
// touching its durable state: open handles (the WAL) are closed through
// Durability.ReleaseTenant, but the manifest entry and on-disk WAL +
// snapshots survive, because after a migration they belong to the
// tenant's NEW owner. This is the old-owner half of a tenant handoff;
// contrast Deregister, which deletes the tenant everywhere. Like
// Deregister it drains any in-flight recovery of the name first, so a
// release racing a first-touch recovery can never leave the tenant
// serving from memory. A released name is simply unknown here afterwards:
// a later Deregister on this node 404s and must NOT reach ForgetTenant —
// that would delete the state the new owner is serving from.
func (r *Registry) Release(name string) bool {
	if !r.remove(name) {
		return false
	}
	r.pendMu.Lock()
	r.released[name] = true
	r.pendMu.Unlock()
	if r.durability != nil {
		r.durability.ReleaseTenant(name)
	}
	return true
}

// remove is the in-memory half of Deregister and Release: it drops name's
// pending and live entries and its QoS state, reporting whether there was
// either entry. Any in-flight recovery or creation of the name is drained
// first — its Register would otherwise land after the removal and
// resurrect the tenant in memory — and holding pendMu across the
// pending-entry removal guarantees no new flight starts in between.
func (r *Registry) remove(name string) bool {
	r.pendMu.Lock()
	for {
		c, running := r.recovering[name]
		if !running {
			break
		}
		r.pendMu.Unlock()
		<-c.done
		r.pendMu.Lock()
	}
	_, pend := r.pending[name]
	delete(r.pending, name)
	r.pendMu.Unlock()

	s := r.stripe(name)
	s.mu.Lock()
	_, live := s.tenants[name]
	delete(s.tenants, name)
	s.mu.Unlock()
	if !live && !pend {
		return false
	}
	// A later re-registration under the same name starts with fresh
	// buckets and counters.
	r.qos.Drop(name)
	return true
}

// Readopt clears a prior Release handoff mark so the miss-path lookup (or
// a fresh AddPending) may adopt the name here again. Only the routing
// tier calls it, at the moment ownership legitimately returns to this
// node — the tenant's newer owner failed, or a rebalance mapped the
// tenant back — which keeps the released-mark's split-brain protection
// intact: a stray request on the old owner still cannot resurrect a
// handed-off tenant by itself; only an explicit ownership assignment can.
func (r *Registry) Readopt(name string) {
	r.pendMu.Lock()
	delete(r.released, name)
	r.pendMu.Unlock()
}

// LiveNames lists only materialized tenants — the ones this process has
// actually recovered or registered and is serving from memory — sorted.
// Pending manifest entries are excluded: in a fleet sharing one durable
// store every node sees every tenant pending, and a rebalance needs to
// know who is actually serving what.
func (r *Registry) LiveNames() []string {
	var out []string
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.RLock()
		for name := range s.tenants {
			out = append(out, name)
		}
		s.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// Names lists registered tenants — live and pending — sorted.
func (r *Registry) Names() []string {
	var out []string
	seen := make(map[string]bool)
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.RLock()
		for name := range s.tenants {
			out = append(out, name)
			seen[name] = true
		}
		s.mu.RUnlock()
	}
	r.pendMu.Lock()
	for name := range r.pending {
		if !seen[name] {
			out = append(out, name)
		}
	}
	r.pendMu.Unlock()
	sort.Strings(out)
	return out
}

// Page is one served slice of a query's result sequence.
type Page struct {
	// Summaries is the page content, in serving order.
	Summaries []sizelos.Summary
	// Cursor resumes the query after this page; empty when the query is
	// fully served.
	Cursor string
	// Stats counts the work behind the page (matches seen, summaries
	// actually computed, tombstones skipped).
	Stats sizelos.QueryStats
}

// flightKey canonicalizes a request for single-flight batching: the
// engine's one fingerprint of the sequence-shaping fields, plus the page
// (Limit and Cursor: different pages of one query are different
// computations), plus the DS relation's invalidation epoch. The epoch
// matters because a leader whose engine call has returned but whose flight
// entry hasn't been unregistered yet could otherwise be joined by a request
// arriving after a completed mutation, handing it pre-mutation summaries;
// with the epoch in the key, post-mutation requests hash to a fresh flight
// and always recompute (or hit the epoch-keyed cache). The group is per
// tenant, so a 64-bit fingerprint collision could at worst hand a tenant
// the page of another of its own concurrently running queries.
type flightKey struct {
	fingerprint uint64
	limit       int
	cursor      string
	epoch       uint64
}

// QueryPage serves one page of req (Limit/Cursor) through the shared pool
// under the tenant's cache scope. Concurrent identical requests are
// batched: one computation runs, every caller receives the same summaries
// (read-only by the engine's cache contract).
func (t *Tenant) QueryPage(req sizelos.QueryRequest) (Page, error) {
	req.Pool, req.CacheScope = t.pool, t.Name
	// Default K before fingerprinting so an omitted k and an explicit k=10
	// batch as the identical computation they are.
	if req.RankBySummary && req.K <= 0 {
		req.K = 10
	}
	key := flightKey{req.Fingerprint(), req.Limit, req.Cursor, t.Engine.EpochFor(req.Rel)}
	return t.flight.do(key, func() (Page, error) {
		sums, cursor, stats, err := t.Engine.QueryPage(req)
		return Page{Summaries: sums, Cursor: cursor, Stats: stats}, err
	})
}

// Mutate applies one atomic batch of tuple mutations to the tenant's
// engine. The engine serializes the batch against this tenant's (and any
// engine-sharing sibling's) in-flight searches and stamps the subjects the
// batch reaches, so no post-mutation request is ever served a pre-mutation
// summary of one. Single-flight batches that are already executing finish
// against the pre-mutation state; their results are keyed to the old epoch
// and never reused afterwards.
func (t *Tenant) Mutate(b sizelos.MutationBatch) (sizelos.MutationResult, error) {
	res, err := t.Engine.Mutate(b)
	batches := &t.footprintBatches
	for _, n := range res.Footprint {
		t.subjectsStamped.Add(uint64(max(n, 0)))
		if n < 0 {
			batches = &t.wideBatches
		}
	}
	if len(res.Footprint) > 0 {
		batches.Add(1)
	}
	return res, err
}

// flightGroup coalesces concurrent calls with the same key into one
// execution whose result every waiter shares — the request-batching layer
// under the HTTP service. Unlike a cache, results are not retained: once
// the last waiter leaves, the next identical request computes afresh
// (or hits the engine's summary cache).
type flightGroup struct {
	mu    sync.Mutex
	calls map[flightKey]*flightCall
}

type flightCall struct {
	done chan struct{}
	res  Page
	err  error
}

// inFlight reports how many keys are currently executing.
func (g *flightGroup) inFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.calls)
}

func (g *flightGroup) do(key flightKey, fn func() (Page, error)) (Page, error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[flightKey]*flightCall)
	}
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		<-c.done
		return c.res, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	// Settle the flight even if fn panics (net/http recovers handler
	// panics): the entry must leave the map and done must close, or every
	// later identical request would block forever on a wedged key. Waiters
	// on a panicked flight get an error, not a silent empty result; the
	// panic itself propagates from the leader's goroutine.
	completed := false
	defer func() {
		if !completed {
			c.err = fmt.Errorf("tenancy: in-flight query panicked")
		}
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.res, c.err = fn()
	completed = true
	return c.res, c.err
}
